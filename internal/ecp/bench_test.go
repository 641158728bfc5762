package ecp

import (
	"testing"

	"sdpcm/internal/pcm"
)

// BenchmarkECPRecordClear measures the LazyCorrection bookkeeping of one
// write's victims on an ECP-6 table bound to a device: RecordWD of a small
// error batch, ClearWD as a correction when the entries overflow, and every
// fourth op a normal write's ClearWD. Warm-up makes every line's state, so
// the measured loop allocates nothing.
func BenchmarkECPRecordClear(b *testing.B) {
	dev, err := pcm.NewDevice(pcm.Config{Pages: 1024, FillSeed: 5})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := New(DefaultEntries)
	if err != nil {
		b.Fatal(err)
	}
	tab.Bind(dev)
	const n = 4096
	addrs := make([]pcm.LineAddr, n)
	cells := make([][]int, n)
	state := uint64(7)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := range addrs {
		addrs[i] = pcm.LineAddr(next() % uint64(dev.Lines()))
		dev.Materialize(addrs[i]) // WD errors only land on resident lines
		for range 1 + next()%3 {
			cells[i] = append(cells[i], int(next()%64))
		}
	}
	op := func(i int) {
		j := i % n
		if !tab.RecordWD(addrs[j], cells[j]) {
			tab.ClearWD(addrs[j], true)
		}
		if i%4 == 3 {
			tab.ClearWD(addrs[(j+n/2)%n], false)
		}
	}
	for i := 0; i < 4*n; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
