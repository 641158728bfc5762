package sim

import (
	"math"
	"runtime"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// quickCfg returns a small-but-meaningful run configuration.
func quickCfg(scheme core.Scheme, bench string) Config {
	return Config{
		Scheme:      scheme,
		Mix:         workload.HomogeneousMix(bench, 4),
		RefsPerCore: 4000,
		MemPages:    1 << 16, // 256 MB
		RegionPages: 1024,
		Seed:        7,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunProducesSaneResult(t *testing.T) {
	r := run(t, quickCfg(core.Baseline(), "lbm"))
	if r.Cycles == 0 || r.Instructions == 0 || r.CPI <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.MC.DemandReads == 0 || r.MC.WriteOps == 0 {
		t.Fatalf("no memory traffic: %+v", r.MC)
	}
	if r.PageFaults == 0 || r.TLBMisses == 0 {
		t.Fatal("no VM activity recorded")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, quickCfg(core.LazyCPreRead(6), "mcf"))
	b := run(t, quickCfg(core.LazyCPreRead(6), "mcf"))
	if a.Cycles != b.Cycles || a.MC != b.MC || a.WD != b.WD {
		t.Fatal("simulation must be deterministic under a fixed seed")
	}
	c := run(t, Config{
		Scheme:      core.LazyCPreRead(6),
		Mix:         workload.HomogeneousMix("mcf", 4),
		RefsPerCore: 4000,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        8,
	})
	if a.Cycles == c.Cycles {
		t.Log("different seeds produced identical cycles (suspicious but possible)")
	}
}

// TestShardDeterminismMatrix: a run with every optional subsystem at once
// (the integrity shadow, wear leveling, the event trace and the heatmap) is
// byte-identical across repeated runs and across GOMAXPROCS settings.
func TestShardDeterminismMatrix(t *testing.T) {
	full := checkpointCfg()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			got := fullFingerprint(t, run(t, full))
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("GOMAXPROCS=%d run %d: fingerprint %s != %s", procs, rep, got, want)
			}
		}
	}
}

// TestCPIEmptyReplayStreams is the Result.CPI divide-by-zero regression: a
// replay whose streams are all empty must report CPI 0, not NaN, so JSON
// output stays valid.
func TestCPIEmptyReplayStreams(t *testing.T) {
	r := run(t, Config{
		Scheme:      core.Baseline(),
		Streams:     []trace.Stream{trace.NewSliceStream(nil), trace.NewSliceStream(nil)},
		RefsPerCore: 100,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        3,
	})
	if math.IsNaN(r.CPI) || r.CPI != 0 {
		t.Fatalf("CPI = %v for empty replay, want 0", r.CPI)
	}
	if r.Instructions != 0 || r.MC.WriteOps != 0 {
		t.Fatalf("empty replay did work: %+v", r)
	}
}

func TestSchemeOrderingOnWriteHeavyMix(t *testing.T) {
	// The paper's headline ordering on a memory/write-intensive workload:
	// DIN (no VnC) fastest; baseline slowest; LazyC in between;
	// (1:2)-Alloc eliminates VnC and approaches DIN.
	din := run(t, quickCfg(core.DIN(), "mcf"))
	base := run(t, quickCfg(core.Baseline(), "mcf"))
	lazy := run(t, quickCfg(core.LazyC(6), "mcf"))
	alloc12 := run(t, quickCfg(core.NMAlloc(alloc.Tag12), "mcf"))

	if !(din.CPI < base.CPI) {
		t.Errorf("DIN CPI %v must beat baseline %v", din.CPI, base.CPI)
	}
	if !(lazy.CPI < base.CPI) {
		t.Errorf("LazyC CPI %v must beat baseline %v", lazy.CPI, base.CPI)
	}
	if !(alloc12.CPI < base.CPI) {
		t.Errorf("(1:2) CPI %v must beat baseline %v", alloc12.CPI, base.CPI)
	}
	// (1:2) needs no verification at all: its VnC activity must be ~zero
	// away from region boundaries.
	if alloc12.MC.CorrectionWrites > base.MC.CorrectionWrites/10 {
		t.Errorf("(1:2) corrections = %d vs baseline %d",
			alloc12.MC.CorrectionWrites, base.MC.CorrectionWrites)
	}
}

func TestLazyCReducesCorrectionsFig12(t *testing.T) {
	base := run(t, quickCfg(core.Baseline(), "lbm"))
	lazy := run(t, quickCfg(core.LazyC(6), "lbm"))
	if base.CorrectionsPerWrite() < 0.5 {
		t.Errorf("baseline corrections/write = %v, expected ~1.8 (Fig 12 ECP-0)",
			base.CorrectionsPerWrite())
	}
	if lazy.CorrectionsPerWrite() > base.CorrectionsPerWrite()/4 {
		t.Errorf("ECP-6 corrections/write = %v vs baseline %v: LazyC must slash them",
			lazy.CorrectionsPerWrite(), base.CorrectionsPerWrite())
	}
}

func TestFig4Shape(t *testing.T) {
	r := run(t, quickCfg(core.Baseline(), "lbm"))
	wl := r.WordLineErrorsPerWrite()
	bl := r.BitLineErrorsPerAdjacentLine()
	if wl <= 0 || bl <= 0 {
		t.Fatalf("no WD observed: wl=%v bl=%v", wl, bl)
	}
	// Fig 4: word-line errors well mitigated (avg ~0.4), bit-line errors
	// per adjacent line much larger (avg ~2).
	if wl >= bl {
		t.Errorf("word-line errors per write (%v) must be below bit-line per line (%v)", wl, bl)
	}
	if wl > 2.0 {
		t.Errorf("word-line errors per write = %v, want < 2 with DIN", wl)
	}
	if r.WD.MaxBitLinePerLine < 2 {
		t.Errorf("max bit-line errors per line = %d, expected multi-bit bursts", r.WD.MaxBitLinePerLine)
	}
}

func TestLifetimeMetrics(t *testing.T) {
	r := run(t, quickCfg(core.LazyC(6), "lbm"))
	dl := r.DataChipLifetime()
	el := r.ECPChipLifetime()
	if dl <= 0.9 || dl > 1.0 {
		t.Errorf("data chip lifetime = %v, want slightly below 1 (Fig 17)", dl)
	}
	if el <= 0 || el >= 1.0 {
		t.Errorf("ECP chip lifetime = %v, want in (0,1) (Fig 18)", el)
	}
	if el >= dl {
		t.Errorf("ECP chip (%v) must degrade more than data chips (%v)", el, dl)
	}
}

func TestWDFreeSchemeSeesNoErrors(t *testing.T) {
	r := run(t, quickCfg(core.WDFree(), "lbm"))
	if r.WD.BitLineFlips != 0 || r.WD.InLineErrors != 0 || r.WD.EdgeErrors != 0 {
		t.Fatalf("prototype layout disturbed cells: %+v", r.WD)
	}
	if r.MC.CorrectionWrites != 0 || r.MC.VerifyReads != 0 {
		t.Fatalf("prototype layout ran VnC: %+v", r.MC)
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg(core.LazyC(6), name)
			cfg.RefsPerCore = 1500
			r := run(t, cfg)
			if r.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Mix: workload.MixSpec{Name: "lbm"}}.normalized()
	if c.MemPages != 1<<21 || c.RegionPages != 16384 || c.RefsPerCore != 100000 {
		t.Fatalf("defaults = %+v", c)
	}
	if len(c.Mix.Cores) != 8 {
		t.Fatalf("default mix cores = %d, want 8", len(c.Mix.Cores))
	}
}

func TestInvalidSchemeRejected(t *testing.T) {
	cfg := quickCfg(core.Scheme{}, "lbm")
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid scheme must be rejected")
	}
}

func TestInvalidBenchmarkRejected(t *testing.T) {
	cfg := quickCfg(core.Baseline(), "nope")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown benchmark must be rejected")
	}
}
