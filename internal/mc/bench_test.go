package mc

import (
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

// BenchmarkWritePath measures the hot write path with VnC on: posted writes
// at a rate that keeps the queue busy, so background drains, bursty drains
// and the full executeWrite flow (pre-reads, program, verify, correct) all
// run. The sub-benchmarks cover each policy stack; the numbers guard the
// cost of the policy-interface indirection (must stay within noise of the
// direct-call implementation).
// TestWritePathAllocFree pins the controller's steady-state zero-allocation
// contract: after a warm-up that materializes device chunks, queue capacity,
// the entry pool and the per-depth bit scratch, posted writes (including
// verification and eager correction) never touch the heap.
func TestWritePathAllocFree(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 8
	d, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(testPages, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, d, a, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-grow the verification scratch to the cascade bound so a deeper-
	// than-warm-up cascade during measurement cannot allocate.
	for depth := 0; depth <= cfg.MaxCascadeDepth; depth++ {
		c.scratchBits(depth, pcm.Mask{})
	}
	rnd := rng.New(3)
	const n = 4096
	addrs := make([]pcm.LineAddr, n)
	datas := make([]pcm.Line, n)
	for i := range addrs {
		addrs[i] = pcm.LineOf(pcm.PageAddr(rnd.Intn(256)), rnd.Intn(64))
		for w := range datas[i] {
			datas[i][w] = rnd.Uint64()
		}
	}
	var clock uint64
	step := func(i int) {
		j := i % n
		c.Write(clock, addrs[j], datas[j])
		clock += 700
	}
	// Two full cycles materialize every chunk, ECP/codec line state and the
	// steady queue/pool capacities.
	for i := 0; i < 2*n; i++ {
		step(i)
	}
	i := 0
	if got := testing.AllocsPerRun(400, func() {
		i++
		step(i)
	}); got != 0 {
		t.Errorf("write path allocates %v/run in steady state", got)
	}
}

func BenchmarkWritePath(b *testing.B) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"vnc", baselineCfg()},
		{"lazyc6", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP()
			c.ECPEntries = 6
			return c
		}()},
		{"lazyc6+preread", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP()
			c.ECPEntries = 6
			c.PreRead = true
			return c
		}()},
		{"wc+lazyc6", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP()
			c.ECPEntries = 6
			c.WriteCancel = true
			return c
		}()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg
			cfg.WriteQueueCap = 8
			d, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
			if err != nil {
				b.Fatal(err)
			}
			a, err := alloc.New(testPages, 128)
			if err != nil {
				b.Fatal(err)
			}
			c, err := New(cfg, d, a, rng.New(99))
			if err != nil {
				b.Fatal(err)
			}
			// Pre-generate a deterministic request stream so generation cost
			// stays out of the measured loop.
			rnd := rng.New(3)
			const n = 4096
			addrs := make([]pcm.LineAddr, n)
			datas := make([]pcm.Line, n)
			for i := range addrs {
				addrs[i] = pcm.LineOf(pcm.PageAddr(rnd.Intn(256)), rnd.Intn(64))
				for w := range datas[i] {
					datas[i][w] = rnd.Uint64()
				}
			}
			var clock uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				c.Write(clock, addrs[j], datas[j])
				clock += 700
			}
			b.StopTimer()
			c.Flush(clock)
		})
	}
}
