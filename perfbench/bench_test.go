package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{7}, 0.95, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 || xs[2] != 3 {
		t.Error("quantile reordered its input")
	}
}

// TestTailPercentileTenBeyond pins the rule: the highest ladder percentile
// with at least ten samples ranked above it.
func TestTailPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		ok   bool
		want float64
	}{
		{19, false, 0},
		{20, true, 50},
		{99, true, 50},
		{100, true, 90},
		{199, true, 90},
		{200, true, 95},
		{240, true, 95},
		{1000, true, 99},
		{10000, true, 99.9},
	} {
		p, _, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: tailPercentile = p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	if got := beyond(200, 95); got != 10 {
		t.Errorf("beyond(200, 95) = %d, want 10", got)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Error("an empty tally has failed_frac 0")
	}
	first := errors.New("first")
	tl.note(nil)
	tl.note(first)
	tl.note(nil)
	tl.note(errors.New("second"))
	if tl.attempted != 4 || tl.failed != 2 || tl.frac() != 0.5 {
		t.Errorf("tally = %d/%d frac %g, want 2/4 frac 0.5", tl.failed, tl.attempted, tl.frac())
	}
	if tl.firstErr != first || tl.String() != "2/4" {
		t.Errorf("firstErr %v, String %q", tl.firstErr, tl.String())
	}
}

// TestSelfTimeSubtractsChildCoverage checks that a span's self time is its
// duration minus the union of its children's intervals clipped to it.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

// TestTracerTotalsCountDroppedLeaves checks that leaves past the kept bound
// still count toward their name's totals and their parent's self time.
func TestTracerTotalsCountDroppedLeaves(t *testing.T) {
	tr := NewTracer("test")
	root := tr.Begin("root", 0)
	tr.leaves = maxLeafSpans - 1 // one more leaf is kept, the rest dropped
	for i := int64(0); i < 3; i++ {
		tr.Leaf("leaf", root, 10*i, 10*i+4, 1)
	}
	tr.End(root, 3)
	tr.spans[root-1].Start, tr.spans[root-1].End = 0, 100

	tot := tr.Totals()
	leaf := tot["leaf"]
	if leaf.Calls != 3 || leaf.InclNs != 12 || leaf.SelfNs != 12 || leaf.perCall() != 4 {
		t.Errorf("leaf totals %+v", *leaf)
	}
	if got := tot["root"].SelfNs; got != 88 {
		t.Errorf("root self = %d, want 100 - 3*4", got)
	}
	if len(tr.spans) != 2 {
		t.Errorf("kept %d spans, want root + one leaf", len(tr.spans))
	}
}

// TestContractMatchesBenchmarkJSON keeps the metrics the result line carries
// in step with BENCHMARK.json at the repository root.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %+v", kind, i, d, g)
			}
		}
	}
	compare("end_to_end", endToEndDefs, doc.EndToEnd)
	compare("per_layer", perLayerDefs, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no run function", w.Name)
		}
	}
}
