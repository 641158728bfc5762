// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates its experiment at a
// reduced-but-shape-preserving scale and reports the figure's headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// produces a compact machine-readable rendition of the whole evaluation.
// For paper-scale runs use cmd/sdpcm-bench with -refs 10000000.
//
// Figures execute through the declarative sweep runner: points run in
// parallel (bit-identical results regardless of worker count) and repeat
// points are memoized. BenchmarkAllFiguresSharedCache measures the whole
// evaluation with the cache shared across figures, the sdpcm-bench -exp all
// path.
package sdpcm_test

import (
	"fmt"
	"testing"

	"sdpcm"
	"sdpcm/internal/topo"
)

// benchOpts keeps individual benchmarks to a few hundred milliseconds.
func benchOpts() sdpcm.ExperimentOptions {
	return sdpcm.ExperimentOptions{
		Base: sdpcm.SweepBase{
			RefsPerCore: 2500,
			Cores:       4,
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        42,
		},
		Benchmarks: []string{"gemsFDTD", "lbm", "mcf"},
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sdpcm.Table1()
		b.ReportMetric(t.Get("word-line", "error-rate"), "wl-rate")
		b.ReportMetric(t.Get("bit-line", "error-rate"), "bl-rate")
	}
}

func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sdpcm.Capacity()
		b.ReportMetric(t.Get("capacity improvement", "value"), "improvement")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "wl-avg"), "wl-err/write")
		b.ReportMetric(t.Get("gmean", "bl-avg/line"), "bl-err/line")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "verify-only"), "verify-slowdown")
		b.ReportMetric(t.Get("gmean", "verify+correct"), "vnc-slowdown")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "DIN"), "din_speedup")
		b.ReportMetric(t.Get("gmean", "LazyC(ECP-6)"), "lazyc_speedup")
		b.ReportMetric(t.Get("gmean", "LazyC+PreRead+(2:3)"), "all3_speedup")
		b.ReportMetric(t.Get("gmean", "(1:2)-Alloc"), "alloc12_speedup")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("average", "ECP-0"), "corr/write-ecp0")
		b.ReportMetric(t.Get("average", "ECP-6"), "corr/write-ecp6")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "ECP-6"), "ecp6_speedup")
		b.ReportMetric(t.Get("gmean", "ECP-12"), "ecp12_speedup")
	}
}

func BenchmarkFig14(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"lbm"}
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("100% lifetime", "normalised-perf"), "eol-perf")
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig15(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "wq-8"), "wq8_speedup")
		b.ReportMetric(t.Get("gmean", "wq-32"), "wq32_speedup")
		b.ReportMetric(t.Get("gmean", "wq-64"), "wq64_speedup")
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig16(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "(1:2)"), "alloc12_speedup")
		b.ReportMetric(t.Get("gmean", "(2:3)"), "alloc23_speedup")
		b.ReportMetric(t.Get("gmean", "(3:4)"), "alloc34_speedup")
	}
}

func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig17(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "lifetime"), "data-chip-life")
	}
}

func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig18(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "lifetime"), "ecp-chip-life")
	}
}

func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := sdpcm.Fig19(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Get("gmean", "WC"), "wc_speedup")
		b.ReportMetric(t.Get("gmean", "WC+LazyC"), "wc-lazyc_speedup")
	}
}

// BenchmarkAllFiguresSharedCache runs every simulation-backed figure through
// one shared sweep executor — the sdpcm-bench -exp all path — and reports
// how much work the memo cache deduplicates across figures.
func BenchmarkAllFiguresSharedCache(b *testing.B) {
	figs := []func(sdpcm.ExperimentOptions) (*sdpcm.ResultTable, error){
		sdpcm.Fig4, sdpcm.Fig5, sdpcm.Fig11, sdpcm.Fig12, sdpcm.Fig13,
		sdpcm.Fig14, sdpcm.Fig15, sdpcm.Fig16, sdpcm.Fig17, sdpcm.Fig18,
		sdpcm.Fig19,
	}
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Exec = &sdpcm.SweepRunner{}
		for _, f := range figs {
			if _, err := f(o); err != nil {
				b.Fatal(err)
			}
		}
		st := o.Exec.Stats()
		b.ReportMetric(float64(st.Points), "points")
		b.ReportMetric(float64(st.SimRuns), "sim-runs")
		b.ReportMetric(float64(st.CacheHits), "cache-hits")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (references
// simulated per second) for the heaviest scheme — useful when sizing
// paper-scale runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sdpcm.SimConfig{
		Scheme:      sdpcm.AllThree(6, sdpcm.Tag23),
		Mix:         sdpcm.HomogeneousMix("mcf", 8),
		RefsPerCore: 5000,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdpcm.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*5000*b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSimulatorThroughputRead is the read-dominated counterpart: 8
// cores of bwaves on the two-module demo topology, where reference
// generation, translation and the demand-read path do most of the work and
// the write path idles.
func BenchmarkSimulatorThroughputRead(b *testing.B) {
	cfg := sdpcm.SimConfig{
		Scheme:      sdpcm.Baseline(),
		Mix:         sdpcm.HomogeneousMix("bwaves", 8),
		Topology:    topo.Demo2(),
		RefsPerCore: 20000,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdpcm.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*20000*b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkAblationEncoding compares word-line codecs on the same workload
// (a DESIGN.md ablation): DIN-style disturbance-aware inversion (§4.1),
// Flip-N-Write (write-minimising but disturbance-oblivious [7]) and raw
// storage. Reported: manifested word-line errors per write and programmed
// cells per write.
func BenchmarkAblationEncoding(b *testing.B) {
	for _, enc := range []string{"din", "fnw", "none"} {
		enc := enc
		b.Run(enc, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sdpcm.LazyC(6)
				s.Encoding = enc
				r, err := sdpcm.Run(sdpcm.SimConfig{
					Scheme:      s,
					Mix:         sdpcm.HomogeneousMix("lbm", 4),
					RefsPerCore: 3000,
					MemPages:    1 << 16,
					RegionPages: 1024,
					Seed:        42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.WordLineErrorsPerWrite(), "wl-err/write")
				b.ReportMetric(float64(r.Dev.ResetPulses+r.Dev.SetPulses)/float64(r.MC.WriteOps), "cells/write")
				b.ReportMetric(r.CPI, "CPI")
			}
		})
	}
}

// BenchmarkAblationNMRegionSize sweeps the (n:m) marking-region size (a
// DESIGN.md ablation): smaller regions mean more always-verify boundary
// strips (§4.4), eroding the allocator's VnC savings.
func BenchmarkAblationNMRegionSize(b *testing.B) {
	for _, region := range []int{256, 1024, 4096} {
		region := region
		b.Run(fmt.Sprintf("region-%d", region), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := sdpcm.Run(sdpcm.SimConfig{
					Scheme:      sdpcm.NMAlloc(sdpcm.Tag12),
					Mix:         sdpcm.HomogeneousMix("lbm", 4),
					RefsPerCore: 3000,
					MemPages:    1 << 16,
					RegionPages: region,
					Seed:        42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.MC.VerifyReads)/float64(r.MC.WriteOps), "verify-reads/write")
				b.ReportMetric(r.CPI, "CPI")
			}
		})
	}
}

// BenchmarkAblationWearLeveling sweeps the intra-row Start-Gap period (the
// §6.7 design alternative [20]): smaller psi rotates faster, spreading wear
// at the cost of extra line copies.
func BenchmarkAblationWearLeveling(b *testing.B) {
	for _, psi := range []int{0, 100, 20} {
		psi := psi
		name := fmt.Sprintf("psi-%d", psi)
		if psi == 0 {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := sdpcm.Run(sdpcm.SimConfig{
					Scheme:       sdpcm.LazyC(6),
					Mix:          sdpcm.HomogeneousMix("lbm", 4),
					RefsPerCore:  3000,
					MemPages:     1 << 16,
					RegionPages:  1024,
					WearLevelPsi: psi,
					Seed:         42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.CPI, "CPI")
				b.ReportMetric(float64(r.WearMoves), "gap-moves")
			}
		})
	}
}

// BenchmarkMetricsOverhead quantifies the observability layer's cost on the
// simulator throughput path. The off case is the seed hot path plus the
// nil-registry branch at every instrumentation site (the <2% budget); the
// on/trace cases price full collection and event tracing.
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		collect bool
		trace   int
	}{
		{"off", false, 0},
		{"on", true, 0},
		{"trace-4096", true, 4096},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sdpcm.SimConfig{
				Scheme:         sdpcm.AllThree(6, sdpcm.Tag23),
				Mix:            sdpcm.HomogeneousMix("mcf", 8),
				RefsPerCore:    5000,
				MemPages:       1 << 16,
				RegionPages:    1024,
				Seed:           1,
				CollectMetrics: mode.collect,
				TraceEvents:    mode.trace,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sdpcm.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*5000*b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
