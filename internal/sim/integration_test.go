package sim

import (
	"strings"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// Integration tests: cross-component invariants of full-system runs.

func TestEncodingAblation(t *testing.T) {
	// DIN encoding must manifest fewer word-line errors than raw storage;
	// Flip-N-Write must program fewer cells than either.
	results := map[string]Result{}
	for _, enc := range []string{"din", "fnw", "none"} {
		s := core.LazyC(6)
		s.Encoding = enc
		r := run(t, quickCfg(s, "lbm"))
		results[enc] = r
	}
	wl := func(e string) float64 { return results[e].WordLineErrorsPerWrite() }
	cells := func(e string) float64 {
		return float64(results[e].Dev.CellWrites()) / float64(results[e].MC.WriteOps)
	}
	if wl("din") >= wl("none") {
		t.Errorf("DIN wl-errors %v must beat raw %v", wl("din"), wl("none"))
	}
	if cells("fnw") >= cells("none") {
		t.Errorf("FNW cells/write %v must beat raw %v", cells("fnw"), cells("none"))
	}
}

func TestVerifyReadsMatchAllocatorExpectation(t *testing.T) {
	// Steady-state verification reads per write op should track the
	// allocator's analytic expectation (2 reads per verified neighbour:
	// pre + post), modulo region boundaries and row edges.
	for _, tc := range []struct {
		tag  alloc.Tag
		want float64 // expected verified neighbours per write
	}{
		{alloc.Tag11, 2.0},
		{alloc.Tag23, 1.0},
		{alloc.Tag34, 4.0 / 3.0},
	} {
		s := core.NMAlloc(tc.tag)
		if tc.tag == alloc.Tag11 {
			s = core.Baseline()
		}
		r := run(t, quickCfg(s, "lbm"))
		got := float64(r.MC.VerifyReads) / float64(r.MC.WriteOps) / 2
		if got < tc.want*0.85 || got > tc.want*1.15 {
			t.Errorf("%v: verified neighbours per write = %v, want ~%v",
				tc.tag, got, tc.want)
		}
	}
}

func TestPreReadActivityOnlyWhenEnabled(t *testing.T) {
	off := run(t, quickCfg(core.LazyC(6), "lbm"))
	if off.MC.PreReadsIssued != 0 || off.MC.PreReadsForwarded != 0 {
		t.Fatal("PreRead activity without the scheme enabled")
	}
	on := run(t, quickCfg(core.LazyCPreRead(6), "lbm"))
	if on.MC.PreReadsIssued == 0 {
		t.Fatal("PreRead scheme never issued a preread")
	}
	if on.MC.PreReadHits == 0 {
		t.Fatal("PreRead never paid off (no write op found both buffers ready)")
	}
}

func TestWriteCancellationPreemptions(t *testing.T) {
	// A small queue on a bursty (sequential) workload forces full-queue
	// drains, which is when cancellation matters.
	cfg := quickCfg(core.WC(), "lbm")
	cfg.WriteQueueCap = 8
	wc := run(t, cfg)
	if wc.MC.Drains == 0 {
		t.Skip("no drains triggered at this scale; nothing to preempt")
	}
	if wc.MC.ReadPreemptions == 0 {
		t.Fatal("write cancellation never preempted a drain despite bursty drains")
	}
	cfg = quickCfg(core.Baseline(), "lbm")
	cfg.WriteQueueCap = 8
	base := run(t, cfg)
	if base.MC.ReadPreemptions != 0 {
		t.Fatal("baseline must not record preemptions")
	}
}

func TestQueueSizeMonotonicityForIntensiveMix(t *testing.T) {
	// For a write-intensive mix, shrinking the queue to 8 must not *help*:
	// more frequent bursty drains.
	cfg := quickCfg(core.LazyCPreRead(6), "mcf")
	cfg.WriteQueueCap = 8
	q8 := run(t, cfg)
	cfg.WriteQueueCap = 32
	q32 := run(t, cfg)
	if q32.CPI > q8.CPI*1.05 {
		t.Errorf("wq32 CPI %v significantly worse than wq8 %v", q32.CPI, q8.CPI)
	}
}

func TestAgingDegradesGracefully(t *testing.T) {
	fresh := core.LazyC(6)
	aged := core.LazyC(6)
	aged.HardErrorLifetime = 1.0
	rFresh := run(t, quickCfg(fresh, "lbm"))
	rAged := run(t, quickCfg(aged, "lbm"))
	// Aged DIMM does more corrections (fewer free entries)...
	if rAged.CorrectionsPerWrite() < rFresh.CorrectionsPerWrite() {
		t.Errorf("aged corrections %v below fresh %v",
			rAged.CorrectionsPerWrite(), rFresh.CorrectionsPerWrite())
	}
	// ...but the slowdown stays modest (Fig 14's point).
	if rAged.CPI > rFresh.CPI*1.25 {
		t.Errorf("aged CPI %v blew up vs fresh %v", rAged.CPI, rFresh.CPI)
	}
}

func TestFrameAssignmentsRespectMarking(t *testing.T) {
	// Under (1:2), the workload's pages land only in even strips, so
	// VnC activity away from region boundaries must be ~zero.
	r := run(t, quickCfg(core.NMAlloc(alloc.Tag12), "gemsFDTD"))
	perOp := float64(r.MC.VerifyReads) / float64(r.MC.WriteOps)
	if perOp > 0.2 {
		t.Errorf("(1:2) verify reads per op = %v, want near zero", perOp)
	}
	// Region-boundary strips always verify one side (§4.4), so a small
	// residual of corrections remains — but no more than a few percent.
	if r.MC.CorrectionWrites > r.MC.WriteOps/25 {
		t.Errorf("(1:2) corrections = %d for %d ops", r.MC.CorrectionWrites, r.MC.WriteOps)
	}
}

func TestHeterogeneousMix(t *testing.T) {
	// Cores running different benchmarks share banks and the allocator.
	cfg := Config{
		Scheme:      core.LazyC(6),
		Mix:         workload.MixSpec{Name: "mixed", Cores: []string{"mcf", "lbm", "wrf", "stream"}},
		RefsPerCore: 3000,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        13,
	}
	r := run(t, cfg)
	if r.Mix != "mixed" || r.Cycles == 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.PageFaults == 0 {
		t.Fatal("no demand paging in mixed run")
	}
}

func TestCorrectionsScaleWithVolatility(t *testing.T) {
	// gemsFDTD (low bit-change rate) must trigger fewer corrections per
	// write than mcf under basic VnC (§6.4's gemsFDTD remark).
	gems := run(t, quickCfg(core.Baseline(), "gemsFDTD"))
	mcf := run(t, quickCfg(core.Baseline(), "mcf"))
	if gems.CorrectionsPerWrite() >= mcf.CorrectionsPerWrite() {
		t.Errorf("gemsFDTD corrections %v >= mcf %v",
			gems.CorrectionsPerWrite(), mcf.CorrectionsPerWrite())
	}
}

func TestECPAbsorbsWithoutCorrections(t *testing.T) {
	r := run(t, quickCfg(core.LazyC(12), "lbm"))
	if r.MC.LazyRecords == 0 {
		t.Fatal("LazyC(12) never recorded an error batch")
	}
	if r.CorrectionsPerWrite() > 0.05 {
		t.Errorf("LazyC(12) corrections per write = %v, want ~0", r.CorrectionsPerWrite())
	}
}

func TestWDFreeAndDensityConsistency(t *testing.T) {
	// The three layouts must order by CPI: prototype == DIN <= baseline
	// (no VnC on the first two; identical timing).
	din := run(t, quickCfg(core.DIN(), "lbm"))
	proto := run(t, quickCfg(core.WDFree(), "lbm"))
	base := run(t, quickCfg(core.Baseline(), "lbm"))
	if proto.CPI > base.CPI || din.CPI > base.CPI {
		t.Errorf("WD-free layouts slower than baseline: %v %v vs %v",
			proto.CPI, din.CPI, base.CPI)
	}
	// DIN and prototype differ only in in-line rewrite pulses; their CPI
	// should be close.
	ratio := din.CPI / proto.CPI
	if ratio < 0.9 || ratio > 1.15 {
		t.Errorf("DIN/prototype CPI ratio = %v, want ~1", ratio)
	}
}

func TestTraceReplayMode(t *testing.T) {
	// Capture a generator's stream into records, replay them, and confirm
	// the simulator consumes them faithfully.
	spec, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, 77)
	if err != nil {
		t.Fatal(err)
	}
	recs := workload.Capture(g, 5000)
	streams := []trace.Stream{
		trace.NewSliceStream(recs),
		trace.NewSliceStream(recs), // two cores replaying the same trace
	}
	r, err := Run(Config{
		Scheme:      core.LazyC(6),
		Streams:     streams,
		RefsPerCore: 1 << 30, // streams exhaust first
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mix != "trace-replay" {
		t.Fatalf("mix label = %q", r.Mix)
	}
	total := r.MC.DemandReads + r.MC.ForwardedReads + r.MC.WriteRequests
	if total != 2*5000 {
		t.Fatalf("replayed %d refs, want 10000", total)
	}
	if r.MC.WriteOps == 0 || r.CPI <= 0 {
		t.Fatalf("replay produced no activity: %+v", r.MC)
	}
}

func TestTraceReplayDeterminism(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	g, _ := workload.NewGenerator(spec, 3)
	recs := workload.Capture(g, 2000)
	runOnce := func() Result {
		r, err := Run(Config{
			Scheme:      core.Baseline(),
			Streams:     []trace.Stream{trace.NewSliceStream(recs)},
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := runOnce(), runOnce()
	if a.Cycles != b.Cycles || a.MC != b.MC {
		t.Fatal("trace replay must be deterministic")
	}
}

func TestEndToEndIntegrityAllSchemes(t *testing.T) {
	// The system-level statement of the paper's reliability claim: under
	// every scheme, with disturbance constantly flipping real bits, the
	// memory system never returns corrupted data.
	schemes := []core.Scheme{
		core.Baseline(),
		core.LazyC(6),
		core.LazyC(0), // LazyC degenerate: every batch overflows
		core.LazyCPreRead(6),
		core.AllThree(6, alloc.Tag23),
		core.NMAlloc(alloc.Tag12),
		core.WCLazyC(6),
		core.DIN(),
	}
	for _, s := range schemes {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			cfg := quickCfg(s, "mcf") // highest volatility + write rate
			cfg.CheckIntegrity = true
			cfg.RefsPerCore = 3000
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIntegrityCheckedUnderAging(t *testing.T) {
	s := core.LazyC(6)
	s.HardErrorLifetime = 1.0
	cfg := quickCfg(s, "lbm")
	cfg.CheckIntegrity = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWearLevelingIntegrity(t *testing.T) {
	// Start-Gap rotation must never lose or corrupt data, even with
	// disturbance active and copies racing queued writes.
	cfg := quickCfg(core.LazyC(6), "lbm")
	cfg.WearLevelPsi = 20 // rotate aggressively
	cfg.CheckIntegrity = true
	r := run(t, cfg)
	if r.WearMoves == 0 {
		t.Fatal("wear leveling never moved the gap")
	}
}

func TestWearLevelingCostIsModest(t *testing.T) {
	base := run(t, quickCfg(core.LazyC(6), "lbm"))
	cfg := quickCfg(core.LazyC(6), "lbm")
	cfg.WearLevelPsi = 100 // the original paper's period
	wlr := run(t, cfg)
	if wlr.WearMoves == 0 {
		t.Fatal("no gap movements at psi=100")
	}
	// ~1% extra writes at psi=100: CPI must stay close.
	if wlr.CPI > base.CPI*1.10 {
		t.Errorf("wear leveling CPI %v vs %v: cost too high", wlr.CPI, base.CPI)
	}
}

func TestPerCoreAllocatorTags(t *testing.T) {
	// §4.4's usage model: one high-priority write-intensive core requests
	// (1:2) allocation; the rest run under the default allocator. The
	// memory controller must skip VnC only for the (1:2) core's pages.
	mixed := Config{
		Scheme:      core.LazyC(6),
		Mix:         workload.MixSpec{Name: "priority-mix", Cores: []string{"mcf", "lbm", "lbm", "lbm"}},
		CoreTags:    []alloc.Tag{alloc.Tag12, alloc.Tag11, alloc.Tag11, alloc.Tag11},
		RefsPerCore: 3000,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        21,
	}
	r := run(t, mixed)
	// With only some cores under (1:2), verification happens but less than
	// a uniform (1:1) run.
	uniform := mixed
	uniform.CoreTags = nil
	u := run(t, uniform)
	if r.MC.VerifyReads >= u.MC.VerifyReads {
		t.Errorf("per-core (1:2) verify reads %d must undercut uniform %d",
			r.MC.VerifyReads, u.MC.VerifyReads)
	}
	if r.MC.VerifyReads == 0 {
		t.Error("the (1:1) cores must still verify")
	}
	// Mismatched tag count is rejected.
	bad := mixed
	bad.CoreTags = bad.CoreTags[:2]
	if _, err := Run(bad); err == nil {
		t.Error("mismatched CoreTags length must be rejected")
	}
	// Integrity still holds with mixed tags.
	mixed.CheckIntegrity = true
	run(t, mixed)
}

// TestReadReportsCorruptedLine: with the integrity shadow on, a demand read
// fetches the line's content and refuses one that differs from the last
// write. A disturbance flip injected straight into the array after the
// write drained must surface as an integrity violation on the next read.
func TestReadReportsCorruptedLine(t *testing.T) {
	cfg := quickCfg(core.Baseline(), "mcf")
	cfg.CheckIntegrity = true
	cfg = cfg.normalized()
	pls, err := topo.Default().Resolve(cfg.MemPages, cfg.RegionPages)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModuleRun(cfg, pls[0], rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := pcm.LineOf(100, 3)
	m.write(0, addr, workload.Mutation{Mask: 1, Fresh: [32]uint16{0xbeef}})
	if _, err := m.read(10, addr); err != nil {
		t.Fatalf("read forwarded from the queue: %v", err)
	}
	end := m.ctrl.Flush(10)
	if _, err := m.read(end, addr); err != nil {
		t.Fatalf("read of the drained line: %v", err)
	}
	// Set one cell the stored image holds at 0, as a disturbance flip would.
	stored := m.dev.Peek(addr)
	var flip pcm.Mask
	for i := 0; i < pcm.LineBits; i++ {
		if stored[i/64]>>(i%64)&1 == 0 {
			flip[i/64] = 1 << (i % 64)
			break
		}
	}
	if m.dev.Disturb(addr, flip) != 1 {
		t.Fatal("disturbance flipped no cell")
	}
	if _, err := m.read(end+10000, addr); err == nil || !strings.Contains(err.Error(), "integrity violation") {
		t.Fatalf("read of the corrupted line: err = %v, want an integrity violation", err)
	}
}
