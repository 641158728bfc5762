package pcm

import (
	"testing"
)

// Device microbenchmarks: the data-plane primitives every simulated memory
// reference funnels through. These are pinned in the benchstat CI gate
// (scripts/benchgate) — a >10% ns/op regression fails the build.

// benchAddrs returns a deterministic scatter of in-range line addresses.
func benchAddrs(d *Device, n int) []LineAddr {
	addrs := make([]LineAddr, n)
	state := uint64(12345)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = LineAddr(state % uint64(d.Lines()))
	}
	return addrs
}

func benchDevice(b *testing.B) *Device {
	b.Helper()
	d, err := NewDevice(Config{Pages: 512, FillSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDevicePeek(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	// Touch every chunk so Peek measures the dense indexed path.
	for _, a := range addrs {
		d.Write(a, Line{1}, NormalWrite)
	}
	var sink Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.Peek(addrs[i%len(addrs)])
	}
	_ = sink
}

// BenchmarkDevicePeekUntouched measures the lazy background path: untouched
// chunks compute their pattern on the fly instead of being materialized.
func BenchmarkDevicePeekUntouched(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	var sink Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.Peek(addrs[i%len(addrs)])
	}
	_ = sink
}

func BenchmarkDeviceWrite(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	// Two random images per address, alternated so every timed write
	// programs a realistic (~50% of cells) differential pulse set.
	datas := make([]Line, 2*len(addrs))
	state := uint64(99)
	for i := range datas {
		for w := range datas[i] {
			state = state*6364136223846793005 + 1442695040888963407
			datas[i][w] = state
		}
	}
	// Warm up: materialize every touched chunk so the loop measures the
	// steady-state write path, not one-time storage setup.
	for j := range addrs {
		d.Write(addrs[j], datas[j], NormalWrite)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (2 * len(addrs))
		d.Write(addrs[j%len(addrs)], datas[j], NormalWrite)
	}
}

func BenchmarkDeviceDisturb(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	var flips Mask
	flips.SetBit(3)
	flips.SetBit(200)
	flips.SetBit(509)
	for _, a := range addrs {
		d.Disturb(a, flips)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Disturb(addrs[i%len(addrs)], flips)
	}
}

// BenchmarkDeviceFirstTouch measures materializing lines on first write at
// scattered addresses of a 1 GB device, nearly one line per chunk, the
// pattern of a sparse workload's first pass. It reports the store's bytes
// per resident line beside ns/op; the device is rebuilt (untimed) every
// firstTouchBatch lines so memory stays bounded at any b.N.
func BenchmarkDeviceFirstTouch(b *testing.B) {
	const firstTouchBatch = 1 << 14
	newDev := func() *Device {
		d, err := NewDevice(Config{Pages: 1 << 18, FillSeed: 7})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	d := newDev()
	addrs := benchAddrs(d, firstTouchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%firstTouchBatch == 0 {
			b.StopTimer()
			d = newDev()
			b.StartTimer()
		}
		d.Write(addrs[i%firstTouchBatch], Line{uint64(i)}, NormalWrite)
	}
	b.StopTimer()
	if n := residentLines(d); n > 0 {
		b.ReportMetric(float64(storeBytes(d))/float64(n), "B/line")
	}
}
