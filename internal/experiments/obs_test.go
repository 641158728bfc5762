package experiments

import (
	"reflect"
	"testing"

	"sdpcm/internal/obs"
	"sdpcm/internal/runner"
	"sdpcm/internal/wd"
)

// TestHeatmapDeterministicAcrossParallel is the acceptance check for the
// sweep-level heatmap, folded through obs.Progress as sdpcm-bench and the
// sweep service fold it: the merged aggregate must be bit-identical whether
// the points run sequentially or on four workers (merge commutativity plus
// per-point determinism).
func TestHeatmapDeterministicAcrossParallel(t *testing.T) {
	run := func(parallel int) *wd.HeatmapSnapshot {
		o := fastOpts()
		o.Benchmarks = []string{"lbm", "mcf"}
		o.HeatmapRegions = 8
		o.Exec = &runner.Runner{Workers: parallel}
		p := obs.NewProgress()
		o.Observer = p
		if _, err := Fig12(o); err != nil {
			t.Fatal(err)
		}
		if p.Snapshot().PointsDone == 0 {
			t.Fatal("observer saw no points")
		}
		merged := p.Heatmap()
		if merged == nil {
			t.Fatal("no heatmaps collected despite HeatmapRegions")
		}
		return merged
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("merged heatmap differs between -parallel 1 and 4")
	}
	if seq.Total(func(c wd.HeatCell) uint64 { return c.Injected }) == 0 {
		t.Fatal("sweep recorded no injected flips")
	}
}

// TestHeatmapFlowsThroughCache checks that cached points still deliver their
// heatmap to observers (the memoized Result carries it).
func TestHeatmapFlowsThroughCache(t *testing.T) {
	o := fastOpts()
	o.Benchmarks = []string{"lbm"}
	o.HeatmapRegions = 4
	ex := &runner.Runner{}
	o.Exec = ex
	p := obs.NewProgress()

	// First pass simulates; run it without the observer.
	if _, err := Fig12(o); err != nil {
		t.Fatal(err)
	}
	// Second identical pass is served from the memo cache; pass the
	// observer with this figure call only.
	o.Observer = p
	if _, err := Fig12(o); err != nil {
		t.Fatal(err)
	}
	if n, merged := p.Snapshot().PointsDone, p.Heatmap(); n == 0 || merged == nil {
		t.Fatalf("cached pass delivered %d points, merged=%v", n, merged)
	}
	st := ex.Stats()
	if st.CacheHits == 0 {
		t.Fatal("second pass should have hit the cache")
	}
}
