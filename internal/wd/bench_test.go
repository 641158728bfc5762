package wd

import (
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

// BenchmarkWDInject measures the full per-write disturbance injection —
// in-line verify-and-rewrite sampling, segment-edge flips and bit-line
// victim flips — on a warmed dense device. Pinned in the benchstat CI gate.
func BenchmarkWDInject(b *testing.B) {
	dev, err := pcm.NewDevice(pcm.Config{Pages: 64, FillSeed: 3})
	if err != nil {
		b.Fatal(err)
	}
	e := New(denseRates, rng.New(7))
	const n = 1024
	addrs := make([]pcm.LineAddr, n)
	datas := make([]pcm.Line, n)
	r := rng.New(5)
	for i := range addrs {
		addrs[i] = pcm.LineOf(pcm.PageAddr(16+r.Intn(32)), r.Intn(pcm.LinesPerPage))
		for w := range datas[i] {
			datas[i][w] = r.Uint64()
		}
	}
	// Warm-up pass materializes every chunk the loop will touch.
	for i := range addrs {
		writeAndDisturb(e, dev, addrs[i], datas[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		old := dev.Peek(addrs[j])
		res := dev.Write(addrs[j], datas[j], pcm.NormalWrite)
		e.OnWrite(dev, addrs[j], old, datas[j], res.Reset, res.Set)
	}
}

// TestOnWriteAllocFree pins the WD sample path at zero allocations: every
// pulse map is sampled in place by rng.Rand.SampleBits.
func TestOnWriteAllocFree(t *testing.T) {
	dev, err := pcm.NewDevice(pcm.Config{Pages: 64, FillSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(denseRates, rng.New(7))
	a := pcm.LineOf(32, 5)
	var img [2]pcm.Line
	img[1] = pcm.Line{^uint64(0), 0, ^uint64(0), 0, ^uint64(0), 0, ^uint64(0), 0}
	// Warm up: materialize the written line's and both victims' chunks.
	writeAndDisturb(e, dev, a, img[0])
	writeAndDisturb(e, dev, a, img[1])
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		writeAndDisturb(e, dev, a, img[i%2])
	}); n != 0 {
		t.Errorf("OnWrite allocates %v/run", n)
	}
}
