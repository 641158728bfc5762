package experiments

import (
	"math"
	"strings"
	"testing"

	"sdpcm/internal/runner"
	"sdpcm/internal/workload"
)

// fast options: three representative benchmarks, short traces. The
// assertions below check the paper's *shapes* — orderings, knees,
// monotonicity — which are stable at this scale.
func fastOpts() Options {
	return Options{
		Base: runner.Base{
			RefsPerCore: 3000,
			Cores:       4,
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        11,
		},
		Benchmarks: []string{"gemsFDTD", "lbm", "mcf"},
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if !approx(tb.Get("word-line", "temp(C)"), 310, 0.1) ||
		!approx(tb.Get("bit-line", "temp(C)"), 320, 0.1) {
		t.Fatalf("temperatures wrong:\n%s", tb)
	}
	if !approx(tb.Get("word-line", "error-rate"), 0.099, 1e-3) ||
		!approx(tb.Get("bit-line", "error-rate"), 0.115, 1e-3) {
		t.Fatalf("error rates wrong:\n%s", tb)
	}
}

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestCapacity(t *testing.T) {
	tb := Capacity()
	if !approx(tb.Get("capacity improvement", "value"), 0.80, 0.01) {
		t.Fatalf("capacity improvement:\n%s", tb)
	}
	if !approx(tb.Get("DIN capacity (GB, equal array area)", "value"), 2.22, 0.01) {
		t.Fatalf("DIN capacity:\n%s", tb)
	}
}

func TestFig4Shape(t *testing.T) {
	tb, err := Fig4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fastOpts().Benchmarks {
		wl := tb.Get(b, "wl-avg")
		bl := tb.Get(b, "bl-avg/line")
		if wl <= 0 || bl <= 0 {
			t.Fatalf("%s: zero WD error rates\n%s", b, tb)
		}
		// Word-line errors are well mitigated; bit-line errors dominate.
		if wl >= bl {
			t.Errorf("%s: wl-avg %v >= bl-avg %v", b, wl, bl)
		}
		if tb.Get(b, "bl-max/line") < 2 {
			t.Errorf("%s: max bit-line errors < 2", b)
		}
	}
	// gemsFDTD changes fewer bits per write → fewer errors than lbm/mcf.
	if tb.Get("gemsFDTD", "bl-avg/line") >= tb.Get("mcf", "bl-avg/line") {
		t.Errorf("gemsFDTD must have fewer bit-line errors than mcf\n%s", tb)
	}
}

func TestFig5Shape(t *testing.T) {
	tb, err := Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fastOpts().Benchmarks {
		nv := tb.Get(b, "no-VnC")
		vo := tb.Get(b, "verify-only")
		vc := tb.Get(b, "verify+correct")
		// Both components add overhead; the composition is the worst.
		if !(nv < vo && vo < vc) {
			t.Errorf("%s: ordering broken: %v %v %v", b, nv, vo, vc)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tb, err := Fig11(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	g := func(col string) float64 { return tb.Get("gmean", col) }
	// Every mitigation beats baseline; DIN is the ceiling; (1:2)
	// approaches it; composites beat their parts.
	if !(g("DIN") > 1.1) {
		t.Errorf("DIN gmean %v must be well above baseline", g("DIN"))
	}
	if !(g("LazyC(ECP-6)") > 1.05) {
		t.Errorf("LazyC gmean %v must beat baseline", g("LazyC(ECP-6)"))
	}
	if !(g("LazyC+PreRead") >= g("LazyC(ECP-6)")*0.98) {
		t.Errorf("LazyC+PreRead %v must not lose to LazyC %v",
			g("LazyC+PreRead"), g("LazyC(ECP-6)"))
	}
	if !(g("LazyC+(2:3)") > g("LazyC(ECP-6)")) {
		t.Errorf("LazyC+(2:3) %v must beat LazyC %v", g("LazyC+(2:3)"), g("LazyC(ECP-6)"))
	}
	if !(g("LazyC+PreRead+(2:3)") >= g("LazyC+(2:3)")*0.95) {
		t.Errorf("all-three %v must not lose to LazyC+(2:3) %v",
			g("LazyC+PreRead+(2:3)"), g("LazyC+(2:3)"))
	}
	// (1:2) eliminates VnC: within ~12% of DIN.
	if g("(1:2)-Alloc") < g("DIN")*0.88 {
		t.Errorf("(1:2) %v must approach DIN %v", g("(1:2)-Alloc"), g("DIN"))
	}
}

func TestFig12Shape(t *testing.T) {
	tb, err := Fig12(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// ECP-0 averages near the paper's 1.8 corrections/write; monotone
	// decreasing; ECP-6 near zero.
	e0 := tb.Get("average", "ECP-0")
	if e0 < 1.0 || e0 > 2.6 {
		t.Errorf("ECP-0 corrections/write = %v, paper ~1.8", e0)
	}
	prev := math.Inf(1)
	for _, n := range ECPSweep {
		v := tb.Get("average", colECP(n))
		if v > prev+1e-9 {
			t.Errorf("corrections not monotone at ECP-%d: %v > %v", n, v, prev)
		}
		prev = v
	}
	if e6 := tb.Get("average", "ECP-6"); e6 > e0/5 {
		t.Errorf("ECP-6 corrections = %v, must be far below ECP-0 %v", e6, e0)
	}
}

func colECP(n int) string {
	switch n {
	case 0:
		return "ECP-0"
	case 2:
		return "ECP-2"
	case 4:
		return "ECP-4"
	case 6:
		return "ECP-6"
	case 8:
		return "ECP-8"
	default:
		return "ECP-12"
	}
}

func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Performance grows with ECP entries and saturates: the ECP-6 knee.
	e0 := tb.Get("gmean", "ECP-0")
	e6 := tb.Get("gmean", "ECP-6")
	e12 := tb.Get("gmean", "ECP-12")
	if !(e6 > e0) {
		t.Errorf("ECP-6 %v must beat ECP-0 %v", e6, e0)
	}
	if gain, tail := e6-e0, e12-e6; tail > gain/2 {
		t.Errorf("no knee: 0→6 gain %v, 6→12 gain %v", gain, tail)
	}
}

func TestFig14Shape(t *testing.T) {
	o := fastOpts()
	o.Benchmarks = []string{"lbm"}
	tb, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	// Degradation over lifetime is small (paper: ~0.2%) and the fresh DIMM
	// is the reference.
	if v := tb.Get("0% lifetime", "normalised-perf"); v != 1.0 {
		t.Errorf("fresh DIMM perf = %v, want 1.0", v)
	}
	if v := tb.Get("100% lifetime", "normalised-perf"); v < 0.85 || v > 1.02 {
		t.Errorf("end-of-life perf = %v, want small degradation", v)
	}
}

func TestFig15Shape(t *testing.T) {
	tb, err := Fig15(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Bigger queues must not hurt much; 32 is sufficient (64 adds little).
	q8 := tb.Get("gmean", "wq-8")
	q32 := tb.Get("gmean", "wq-32")
	q64 := tb.Get("gmean", "wq-64")
	if q32 < q8*0.95 {
		t.Errorf("wq-32 %v much worse than wq-8 %v", q32, q8)
	}
	if math.Abs(q64-q32) > 0.15*q32 {
		t.Errorf("wq-64 %v far from wq-32 %v: 32 should be sufficient", q64, q32)
	}
}

func TestFig16Shape(t *testing.T) {
	tb, err := Fig16(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// §6.6: performance increases monotonically from 1:1 (baseline)
	// through 3:4, 2:3, to 1:2.
	g11 := tb.Get("gmean", "(1:1)")
	g34 := tb.Get("gmean", "(3:4)")
	g23 := tb.Get("gmean", "(2:3)")
	g12 := tb.Get("gmean", "(1:2)")
	if !(g12 > g23 && g23 > g34 && g34 > g11*0.99) {
		t.Errorf("(n:m) monotonicity broken: 1:2=%v 2:3=%v 3:4=%v 1:1=%v",
			g12, g23, g34, g11)
	}
}

func TestFig17And18Shape(t *testing.T) {
	o := fastOpts()
	t17, err := Fig17(o)
	if err != nil {
		t.Fatal(err)
	}
	t18, err := Fig18(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range o.Benchmarks {
		dl := t17.Get(b, "lifetime")
		el := t18.Get(b, "lifetime")
		// Data chips degrade barely; the ECP chip visibly more (Fig 17 vs 18).
		if dl < 0.95 || dl > 1.0 {
			t.Errorf("%s: data chip lifetime %v out of expected band", b, dl)
		}
		if el >= dl {
			t.Errorf("%s: ECP chip %v must degrade more than data %v", b, el, dl)
		}
		if el <= 0.1 {
			t.Errorf("%s: ECP chip lifetime %v implausibly low", b, el)
		}
	}
}

func TestFig19Shape(t *testing.T) {
	tb, err := Fig19(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// §6.8: WC improves VnC but not significantly; LazyC beats WC;
	// WC+LazyC is the best of the four.
	base := tb.Get("gmean", "baseline")
	wc := tb.Get("gmean", "WC")
	lazy := tb.Get("gmean", "LazyC(ECP-6)")
	both := tb.Get("gmean", "WC+LazyC")
	if !(wc >= base) {
		t.Errorf("WC %v must not lose to baseline %v", wc, base)
	}
	if !(lazy > wc) {
		t.Errorf("LazyC %v must beat WC alone %v", lazy, wc)
	}
	if !(both >= lazy) {
		t.Errorf("WC+LazyC %v must not lose to LazyC %v", both, lazy)
	}
}

func TestFigTopo2Shape(t *testing.T) {
	tb, err := FigTopo2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Cores split round-robin across the two modules, so both must see
	// substantial write traffic; the eager-VnC near module corrects inline
	// on every disturbed write while the LazyC far module parks disturbances
	// in ECP, so their correction rates must sit orders apart.
	nearW := tb.Get("gmean", "near-writes")
	farW := tb.Get("gmean", "far-writes")
	if nearW == 0 || farW == 0 {
		t.Fatalf("a module saw no writes: near %v, far %v", nearW, farW)
	}
	nearC := tb.Get("gmean", "near-corr/wr")
	farC := tb.Get("gmean", "far-corr/wr")
	if !(nearC > 10*farC) {
		t.Errorf("VnC module corr/wr %v must dwarf LazyC's %v", nearC, farC)
	}
}

func TestOverheadTable(t *testing.T) {
	tb := Overhead()
	// §6.2: ~4KB of PreRead buffering per bank.
	if kb := tb.Get("PreRead buffer KB per bank", "value"); kb < 3.9 || kb > 4.1 {
		t.Errorf("PreRead buffer = %vKB, paper says ~4KB", kb)
	}
	if tb.Get("(n:m) page-table tag bits", "value") != 4 {
		t.Error("tag bits must be 4")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.normalized()
	if o.RefsPerCore != 6000 || o.Cores != 8 || o.MemPages != 1<<17 || o.RegionPages != 1024 ||
		o.Seed != 42 || len(o.Benchmarks) != len(workload.Names()) {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestTablesRenderable(t *testing.T) {
	tb := Table1()
	if !strings.Contains(tb.String(), "Table 1") {
		t.Fatal("table must render with title")
	}
}

// TestRegistry pins the experiment name vocabulary shared by the bench CLI
// and the sweep service, and that static entries run without simulating.
func TestRegistry(t *testing.T) {
	want := []string{"table1", "capacity", "fig4", "fig5", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"overhead", "fig-topo2"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("ExperimentNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExperimentNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	e, err := ByName("table1")
	if err != nil || !e.Static {
		t.Fatalf("ByName(table1) = %+v, %v; want a static entry", e, err)
	}
	tb, err := e.Run(Options{})
	if err != nil || tb == nil {
		t.Fatalf("static run = %v, %v", tb, err)
	}
	if e, err := ByName("fig11"); err != nil || e.Static {
		t.Fatalf("ByName(fig11) = %+v, %v; want a sweep entry", e, err)
	}
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("ByName(fig99) should error")
	}
}
