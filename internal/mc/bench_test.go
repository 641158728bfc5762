package mc

import (
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

// streamLen is the length of the request stream the hot-path tests and
// benchmarks cycle through.
const streamLen = 4096

// writeStream builds a controller over a testPages device and a
// deterministic stream of write requests, so that request generation stays
// out of the measured loops.
func writeStream(tb testing.TB, cfg Config) (*Controller, []pcm.LineAddr, []pcm.Line) {
	tb.Helper()
	d, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := alloc.New(testPages, 128)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(cfg, d, a, rng.New(99))
	if err != nil {
		tb.Fatal(err)
	}
	rnd := rng.New(3)
	addrs := make([]pcm.LineAddr, streamLen)
	datas := make([]pcm.Line, streamLen)
	for i := range addrs {
		addrs[i] = pcm.LineOf(pcm.PageAddr(rnd.Intn(256)), rnd.Intn(64))
		for w := range datas[i] {
			datas[i][w] = rnd.Uint64()
		}
	}
	return c, addrs, datas
}

// preGrowScratch grows the verification scratch to the controller's
// normalized cascade bound, so a cascade deeper than any the warm-up
// reached cannot allocate while a loop is measured.
func preGrowScratch(c *Controller) {
	for depth := 0; depth <= c.cfg.MaxCascadeDepth; depth++ {
		c.scratchBits(depth, pcm.Mask{})
	}
}

// TestWritePathAllocFree pins the controller's steady-state zero-allocation
// contract: after a warm-up that materializes device chunks, queue capacity,
// the entry pool and the per-depth bit scratch, posted writes (including
// verification and eager correction) never touch the heap.
func TestWritePathAllocFree(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 8
	c, addrs, datas := writeStream(t, cfg)
	preGrowScratch(c)
	var clock uint64
	step := func(i int) {
		j := i % streamLen
		c.Write(clock, addrs[j], datas[j])
		clock += 700
	}
	// Two full cycles materialize every chunk, ECP/codec line state and the
	// steady queue/pool capacities.
	for i := 0; i < 2*streamLen; i++ {
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

// BenchmarkWritePath measures the hot write path with VnC on: posted writes
// at a rate that keeps the queue busy, so background drains, bursty drains
// and the full executeWrite flow (pre-reads, program, verify, correct) all
// run. The sub-benchmarks cover each policy stack; the numbers guard the
// cost of the policy-interface indirection (must stay within noise of the
// direct-call implementation).
func BenchmarkWritePath(b *testing.B) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"vnc", baselineCfg()},
		{"lazyc6", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP
			c.ECPEntries = 6
			return c
		}()},
		{"lazyc6+preread", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP
			c.ECPEntries = 6
			c.PreRead = true
			return c
		}()},
		{"wc+lazyc6", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP
			c.ECPEntries = 6
			c.WriteCancel = true
			return c
		}()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg
			cfg.WriteQueueCap = 8
			c, addrs, datas := writeStream(b, cfg)
			preGrowScratch(c)
			var clock uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % streamLen
				c.Write(clock, addrs[j], datas[j])
				clock += 700
			}
			b.StopTimer()
			c.Flush(clock)
		})
	}
}

// readMix is the request mix one memory controller sees in a perfbench sim
// workload, from the run's mc.Stats (one pass, seed 42; seed 7 agrees to
// three digits):
//
//	workload (controller)     demand reads  forwarded  write requests  cycles
//	mcf-write                      104 558         13          95 442   16.37M
//	bwaves-read-topo2 (near)       584 065         90          15 935  247.05M
//
// writesPerMille is the write requests' share of all requests and gap the
// cycles between requests (run cycles over requests): 477 and 82 for
// mcf-write, 27 and 412 for each bwaves-read-topo2 module. Under 0.02% of
// the reads forward from the write queue in either workload; the mix reads
// arbitrary lines of the device, which forward about as rarely.
type readMix struct {
	name           string
	cfg            Config
	writesPerMille int
	gap            uint64
}

var readMixes = []readMix{
	{"mcf-write", func() Config {
		c := baselineCfg()
		c.Correction = LazyECP
		c.ECPEntries = 6
		c.PreRead = true
		return c
	}(), 477, 82},
	{"bwaves-read-topo2", baselineCfg(), 27, 412},
}

// demandReadMix builds the mix's controller, warmed with two full cycles of
// the write stream, and returns one step of the mix: a posted write or a
// timing-only demand read, as the simulator issues them, with the writes
// spread evenly among the reads.
func demandReadMix(tb testing.TB, mix readMix) (*Controller, func()) {
	c, addrs, datas := writeStream(tb, mix.cfg)
	preGrowScratch(c)
	rnd := rng.New(5)
	reads := make([]pcm.LineAddr, streamLen)
	for i := range reads {
		reads[i] = pcm.LineOf(pcm.PageAddr(rnd.Intn(testPages)), rnd.Intn(64))
	}
	var clock uint64
	var i, nw, nr int
	step := func() {
		i++
		if i*mix.writesPerMille/1000 != (i-1)*mix.writesPerMille/1000 {
			c.Write(clock, addrs[nw%streamLen], datas[nw%streamLen])
			nw++
		} else {
			c.ReadTime(clock, reads[nr%streamLen])
			nr++
		}
		clock += mix.gap
	}
	// Two full cycles of the write stream materialize every chunk, ECP/codec
	// line state and the steady queue/pool capacities.
	for nw < 2*streamLen {
		step()
	}
	return c, step
}

// TestDemandReadAllocFree pins each demand-read mix at zero allocations in
// steady state.
func TestDemandReadAllocFree(t *testing.T) {
	for _, mix := range readMixes {
		_, step := demandReadMix(t, mix)
		if got := testing.AllocsPerRun(400, step); got != 0 {
			t.Errorf("%s: demand-read mix allocates %v/run in steady state", mix.name, got)
		}
	}
}

// BenchmarkDemandRead measures each workload's request mix per request.
// fwd/read reports the share of reads forwarded from the write queue.
func BenchmarkDemandRead(b *testing.B) {
	for _, mix := range readMixes {
		b.Run(mix.name, func(b *testing.B) {
			c, step := demandReadMix(b, mix)
			before := c.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if reads := c.Stats.DemandReads - before.DemandReads; reads > 0 {
				b.ReportMetric(float64(c.Stats.ForwardedReads-before.ForwardedReads)/float64(reads), "fwd/read")
			}
		})
	}
}
