// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each Figure function declares its grid of simulation
// points (scheme × benchmark × knob), hands the grid to the sweep executor
// (internal/runner) and assembles the results into a stats.Table whose
// rows/columns mirror the published plot; the sdpcm-bench binary and the
// repository's bench_test.go both drive these.
//
// Execution is parallel and memoized: independent points run on a bounded
// worker pool with bit-identical results regardless of worker count, and
// points shared between figures (the per-benchmark baseline, most notably)
// simulate once per executor. Pass a shared Exec in Options to span the
// memo cache across figures, as sdpcm-bench -exp all does.
//
// Absolute cycle counts depend on the synthetic workloads, so the tables are
// to be read the way the paper's figures are: normalised ratios, orderings
// and knees, not raw numbers. EXPERIMENTS.md records paper-vs-measured for
// each.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/geometry"
	"sdpcm/internal/runner"
	"sdpcm/internal/sim"
	"sdpcm/internal/stats"
	"sdpcm/internal/thermal"
	"sdpcm/internal/topo"
	"sdpcm/internal/workload"
)

// Options names one sweep: the sweep-wide simulation parameters (the
// embedded runner.Base), the benchmark and scheme axes, and the per-call
// executor, observer and context. Zero Base fields take the harness
// defaults: 6000 refs per core (fast and shape-preserving; the paper used
// 10M), 8 cores as in Table 2, 2^17 pages = 512 MB with 4 MB (1024-page)
// marking regions, and seed 42.
type Options struct {
	runner.Base
	// Benchmarks to sweep (default: all of Table 3).
	Benchmarks []string
	// Schemes overrides the scheme roster of the figures that take one
	// (Fig11, Fig19), as registry names resolved through core.ByName at
	// DefaultECPEntries. The baseline is prepended when absent — every
	// figure normalises to it. Empty keeps each figure's published roster.
	Schemes []string
	// Exec executes every point; nil means a fresh default runner.Runner
	// per figure call. Sharing one executor across several figure calls
	// spans its memo cache (and durable store) across them, so points
	// common to multiple figures simulate once (the sdpcm-bench -exp all
	// path, and the sweep service's shared simulation farm).
	Exec *runner.Runner
	// Observer receives this figure call's per-point completion events, so
	// several jobs sharing one Exec each keep their own event stream.
	Observer runner.Observer
	// Ctx cancels an in-flight figure at sweep-point granularity: once
	// done, points not yet simulating fail fast with Ctx.Err() while
	// in-flight simulations complete (and still land in the cache). Nil
	// means never canceled.
	Ctx context.Context
}

func (o Options) normalized() Options {
	if o.RefsPerCore <= 0 {
		o.RefsPerCore = 6000
	}
	if o.Cores <= 0 {
		o.Cores = 8
	}
	if o.MemPages <= 0 {
		o.MemPages = 1 << 17
	}
	if o.RegionPages <= 0 {
		o.RegionPages = 1024
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// run executes one figure's specs through the executor, threading the
// options' context and per-call observer.
func (o Options) run(specs []runner.Spec) ([]sim.Result, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	exec := o.Exec
	if exec == nil {
		exec = &runner.Runner{}
	}
	return exec.RunContext(ctx, o.Base, specs, o.Observer)
}

// roster resolves Options.Schemes through the scheme registry, keeping
// def (the figure's published roster) when no override is set. The
// baseline is prepended when the override omits it: the figures report
// speedup normalised to basic VnC.
func (o Options) roster(def []core.Scheme) ([]core.Scheme, error) {
	if len(o.Schemes) == 0 {
		return def, nil
	}
	out := make([]core.Scheme, 0, len(o.Schemes)+1)
	haveBase := false
	for _, name := range o.Schemes {
		s, err := core.ByName(name, core.DefaultECPEntries)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w (registered: %s)",
				err, strings.Join(core.Names(), "|"))
		}
		if s.Name == core.Baseline().Name {
			haveBase = true
		}
		out = append(out, s)
	}
	if !haveBase {
		out = append([]core.Scheme{core.Baseline()}, out...)
	}
	return out, nil
}

// rosterSpecs declares a scheme-roster × benchmark grid, tagging each point
// with its scheme name (the figure's column label).
func rosterSpecs(benches []string, roster []core.Scheme) []runner.Spec {
	specs := make([]runner.Spec, 0, len(benches)*len(roster))
	for _, b := range benches {
		for _, s := range roster {
			specs = append(specs, runner.Spec{Scheme: s, Bench: b, Tag: s.Name})
		}
	}
	return specs
}

// lookup indexes a sweep's results by (benchmark, tag) for table assembly.
func lookup(specs []runner.Spec, res []sim.Result) func(bench, tag string) sim.Result {
	m := make(map[[2]string]sim.Result, len(specs))
	for i, sp := range specs {
		m[[2]string{sp.Bench, sp.Tag}] = res[i]
	}
	return func(bench, tag string) sim.Result { return m[[2]string{bench, tag}] }
}

// Table1 regenerates the disturbance-probability table (§2.2.2).
func Table1() *stats.Table {
	t := stats.NewTable("Table 1: disturbance probability for 4F² cells (20nm)",
		"temp(C)", "error-rate")
	for _, row := range thermal.Table1() {
		t.Set(row.Axis.String(), "temp(C)", row.TempRiseC)
		t.Set(row.Axis.String(), "error-rate", row.ErrorRate)
	}
	return t
}

// Capacity regenerates the §6.1 capacity and chip-size analysis.
func Capacity() *stats.Table {
	t := stats.NewTable("§6.1: capacity gain of SD-PCM over DIN", "value")
	t.SetFormat("%12.3f")
	cmp := geometry.CompareCapacity(4, geometry.PaperDIMM)
	t.Set("SD-PCM capacity (GB)", "value", cmp.SDPCMCapacityGB)
	t.Set("DIN capacity (GB, equal array area)", "value", cmp.DINCapacityGB)
	t.Set("capacity improvement", "value", cmp.ImprovementFraction)
	t.Set("chip-count reduction (same-size chips)", "value",
		geometry.ChipSizeReductionSameChips(geometry.PaperDIMM))
	t.Set("chip-size reduction (big low-density chips)", "value",
		geometry.ChipSizeReductionBigChips(geometry.PaperDIMM))
	t.Set("cell density 4F² vs 8F²", "value",
		geometry.SuperDense.DensityRelativeTo(geometry.DINEnhanced))
	t.Set("cell density 4F² vs 12F²", "value",
		geometry.SuperDense.DensityRelativeTo(geometry.Prototype))
	return t
}

// Fig4 regenerates Figure 4: manifested WD errors per write, within the
// word-line (a) and in one adjacent line along the bit-line (b), on super
// dense PCM with DIN word-line mitigation and differential write.
func Fig4(o Options) (*stats.Table, error) {
	o = o.normalized()
	specs := runner.Grid{
		Schemes:    []core.Scheme{core.Baseline()},
		Benchmarks: o.Benchmarks,
	}.Expand()
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 4: WD errors when writing a PCM line (4F²)",
		"wl-avg", "wl-max", "bl-avg/line", "bl-max/line")
	for i, sp := range specs {
		r := res[i]
		t.Set(sp.Bench, "wl-avg", r.WordLineErrorsPerWrite())
		t.Set(sp.Bench, "wl-max", float64(r.WD.MaxWordLinePerWrite))
		t.Set(sp.Bench, "bl-avg/line", r.BitLineErrorsPerAdjacentLine())
		t.Set(sp.Bench, "bl-max/line", float64(r.WD.MaxBitLinePerLine))
	}
	t.AddGeoMeanRow()
	return t, nil
}

// Fig5 regenerates Figure 5: the runtime overhead of basic VnC, decomposed
// into verification and correction, relative to a WD-free reference.
// Columns are normalised execution time (higher = slower).
func Fig5(o Options) (*stats.Table, error) {
	o = o.normalized()
	verifyOnly := core.Baseline()
	verifyOnly.NoCorrectCharge = true
	var specs []runner.Spec
	for _, b := range o.Benchmarks {
		specs = append(specs,
			runner.Spec{Scheme: core.WDFree(), Bench: b, Tag: "ref"},
			runner.Spec{Scheme: verifyOnly, Bench: b, Tag: "verify-only"},
			runner.Spec{Scheme: core.Baseline(), Bench: b, Tag: "full"})
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	t := stats.NewTable("Figure 5: VnC overhead at runtime (normalised exec. time)",
		"no-VnC", "verify-only", "verify+correct")
	for _, b := range o.Benchmarks {
		ref := get(b, "ref")
		t.Set(b, "no-VnC", 1.0)
		t.Set(b, "verify-only", get(b, "verify-only").CPI/ref.CPI)
		t.Set(b, "verify+correct", get(b, "full").CPI/ref.CPI)
	}
	t.AddGeoMeanRow()
	return t, nil
}

// Fig11 regenerates the headline scheme comparison: speedup normalised to
// the basic-VnC baseline (bigger is better), per benchmark plus gmean.
func Fig11(o Options) (*stats.Table, error) {
	return rosterFigure(o, "Figure 11: system performance (normalised to baseline)",
		core.Figure11Roster())
}

// rosterFigure is the shared body of Figures 11 and 19: each scheme of the
// roster (def unless Options.Schemes overrides it) per benchmark, as
// speedup over the baseline.
func rosterFigure(o Options, title string, def []core.Scheme) (*stats.Table, error) {
	o = o.normalized()
	roster, err := o.roster(def)
	if err != nil {
		return nil, err
	}
	specs := rosterSpecs(o.Benchmarks, roster)
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	cols := make([]string, len(roster))
	for i, s := range roster {
		cols[i] = s.Name
	}
	t := stats.NewTable(title, cols...)
	for _, b := range o.Benchmarks {
		base := get(b, "baseline")
		for _, s := range roster {
			t.Set(b, s.Name, stats.Speedup(base.CPI, get(b, s.Name).CPI))
		}
	}
	t.AddGeoMeanRow()
	return t, nil
}

// ECPSweep is the entry counts of §6.4.
var ECPSweep = []int{0, 2, 4, 6, 8, 12}

// ecpSpecs declares the §6.4 grid: LazyCorrection per ECP provisioning
// (ECP-0 degenerates to basic VnC) × benchmark, tagged by column label.
func ecpSpecs(benches []string) []runner.Spec {
	var specs []runner.Spec
	for _, b := range benches {
		for _, n := range ECPSweep {
			s := core.LazyC(n)
			if n == 0 {
				s = core.Baseline() // ECP-0 == basic VnC
			}
			specs = append(specs, runner.Spec{
				Scheme: s, Bench: b, Tag: fmt.Sprintf("ECP-%d", n),
			})
		}
	}
	return specs
}

// ecpCols returns the Figure 12/13 column labels.
func ecpCols() []string {
	cols := make([]string, len(ECPSweep))
	for i, n := range ECPSweep {
		cols[i] = fmt.Sprintf("ECP-%d", n)
	}
	return cols
}

// Fig12 regenerates Figure 12: correction operations per write under
// LazyCorrection with varying ECP entries.
func Fig12(o Options) (*stats.Table, error) {
	o = o.normalized()
	specs := ecpSpecs(o.Benchmarks)
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	cols := ecpCols()
	t := stats.NewTable("Figure 12: corrections per write vs ECP entries", cols...)
	for i, sp := range specs {
		t.Set(sp.Bench, sp.Tag, res[i].CorrectionsPerWrite())
	}
	// Arithmetic mean row (the paper's "average" bar); corrections can be
	// zero, which a geomean would drop.
	for _, col := range cols {
		var vals []float64
		for _, b := range o.Benchmarks {
			vals = append(vals, t.Get(b, col))
		}
		t.Set("average", col, stats.Mean(vals))
	}
	return t, nil
}

// Fig13 regenerates Figure 13: performance vs ECP entries, normalised to
// baseline (which is exactly the ECP-0 point).
func Fig13(o Options) (*stats.Table, error) {
	o = o.normalized()
	specs := ecpSpecs(o.Benchmarks)
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	t := stats.NewTable("Figure 13: normalised performance vs ECP entries", ecpCols()...)
	for _, b := range o.Benchmarks {
		base := get(b, "ECP-0")
		for _, n := range ECPSweep {
			tag := fmt.Sprintf("ECP-%d", n)
			t.Set(b, tag, stats.Speedup(base.CPI, get(b, tag).CPI))
		}
	}
	t.AddGeoMeanRow()
	return t, nil
}

// LifetimeSweep is the DIMM-age fractions of Figure 14.
var LifetimeSweep = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Fig14 regenerates Figure 14: performance degradation of LazyC (ECP-6) as
// hard errors consume ECP entries over the DIMM lifetime. Values are
// speedup relative to the pristine DIMM (1.0 at 0% lifetime).
func Fig14(o Options) (*stats.Table, error) {
	o = o.normalized()
	lifeTag := func(f float64) string { return fmt.Sprintf("life-%g", f) }
	var specs []runner.Spec
	for _, b := range o.Benchmarks {
		for _, f := range LifetimeSweep {
			s := core.LazyC(core.DefaultECPEntries)
			s.HardErrorLifetime = f
			specs = append(specs, runner.Spec{Scheme: s, Bench: b, Tag: lifeTag(f)})
		}
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	t := stats.NewTable("Figure 14: performance over DIMM lifetime (LazyC ECP-6)",
		"normalised-perf")
	t.SetFormat("%16.5f")
	var freshCPI float64
	for _, f := range LifetimeSweep {
		var cpis []float64
		for _, b := range o.Benchmarks {
			cpis = append(cpis, get(b, lifeTag(f)).CPI)
		}
		cpi := stats.GeoMean(cpis)
		if f == 0 {
			freshCPI = cpi
		}
		t.Set(fmt.Sprintf("%.0f%% lifetime", f*100), "normalised-perf",
			stats.Speedup(freshCPI, cpi))
	}
	return t, nil
}

// QueueSweep is the write-queue sizes of Figure 15.
var QueueSweep = []int{8, 16, 32, 64}

// Fig15 regenerates Figure 15: LazyC+PreRead performance vs write-queue
// size, normalised to baseline (queue 32).
func Fig15(o Options) (*stats.Table, error) {
	o = o.normalized()
	wqTag := func(q int) string { return fmt.Sprintf("wq-%d", q) }
	var specs []runner.Spec
	for _, b := range o.Benchmarks {
		specs = append(specs, runner.Spec{Scheme: core.Baseline(), Bench: b, Tag: "baseline"})
		for _, q := range QueueSweep {
			specs = append(specs, runner.Spec{
				Scheme: core.LazyCPreRead(core.DefaultECPEntries), Bench: b,
				QueueCap: q, Tag: wqTag(q),
			})
		}
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	cols := make([]string, len(QueueSweep))
	for i, q := range QueueSweep {
		cols[i] = wqTag(q)
	}
	t := stats.NewTable("Figure 15: LazyC+PreRead vs write queue size (normalised to baseline)", cols...)
	for _, b := range o.Benchmarks {
		base := get(b, "baseline")
		for _, q := range QueueSweep {
			t.Set(b, wqTag(q), stats.Speedup(base.CPI, get(b, wqTag(q)).CPI))
		}
	}
	t.AddGeoMeanRow()
	return t, nil
}

// NMSweep is the allocator roster of Figure 16.
var NMSweep = []alloc.Tag{alloc.Tag12, alloc.Tag23, alloc.Tag34, alloc.Tag11}

// Fig16 regenerates Figure 16: performance of (n:m) allocators on basic
// VnC, normalised to baseline ((1:1)).
func Fig16(o Options) (*stats.Table, error) {
	o = o.normalized()
	var specs []runner.Spec
	for _, b := range o.Benchmarks {
		for _, tag := range NMSweep {
			s := core.NMAlloc(tag)
			if tag == alloc.Tag11 {
				s = core.Baseline()
			}
			specs = append(specs, runner.Spec{Scheme: s, Bench: b, Tag: tag.String()})
		}
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	get := lookup(specs, res)
	cols := make([]string, len(NMSweep))
	for i, tag := range NMSweep {
		cols[i] = tag.String()
	}
	t := stats.NewTable("Figure 16: performance of (n:m) allocators (normalised to baseline)", cols...)
	for _, b := range o.Benchmarks {
		base := get(b, alloc.Tag11.String())
		for _, tag := range NMSweep {
			t.Set(b, tag.String(), stats.Speedup(base.CPI, get(b, tag.String()).CPI))
		}
	}
	t.AddGeoMeanRow()
	return t, nil
}

// lifetimeTable is the shared shape of Figures 17 and 18: LazyC (ECP-6) per
// benchmark, reduced to a single lifetime metric.
func lifetimeTable(o Options, title string, metric func(sim.Result) float64) (*stats.Table, error) {
	specs := runner.Grid{
		Schemes:    []core.Scheme{core.LazyC(core.DefaultECPEntries)},
		Benchmarks: o.Benchmarks,
	}.Expand()
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title, "lifetime")
	t.SetFormat("%12.5f")
	for i, sp := range specs {
		t.Set(sp.Bench, "lifetime", metric(res[i]))
	}
	t.AddGeoMeanRow()
	return t, nil
}

// Fig17 regenerates Figure 17: normalised data-chip lifetime under LazyC.
func Fig17(o Options) (*stats.Table, error) {
	return lifetimeTable(o.normalized(), "Figure 17: normalised data-chip lifetime",
		sim.Result.DataChipLifetime)
}

// Fig18 regenerates Figure 18: normalised ECP-chip lifetime under LazyC.
func Fig18(o Options) (*stats.Table, error) {
	return lifetimeTable(o.normalized(), "Figure 18: normalised ECP-chip lifetime",
		sim.Result.ECPChipLifetime)
}

// Fig19 regenerates Figure 19: integrating write cancellation, normalised
// to the VnC baseline.
func Fig19(o Options) (*stats.Table, error) {
	return rosterFigure(o, "Figure 19: write cancellation integration (normalised to baseline)",
		[]core.Scheme{
			core.Baseline(),
			core.WC(),
			core.LazyC(core.DefaultECPEntries),
			core.WCLazyC(core.DefaultECPEntries),
		})
}

// Experiment is one named entry of the evaluation. The registry gives the
// bench CLI's -exp flag and the sweep service's job API a single source of
// truth for what can run and under what name. Static entries (Table1,
// Capacity, Overhead) are closed-form: they simulate nothing and ignore
// the options' sweep knobs.
type Experiment struct {
	Name   string
	Static bool
	Run    func(Options) (*stats.Table, error)
}

// staticExp wraps a closed-form table generator as a registry entry.
func staticExp(name string, f func() *stats.Table) Experiment {
	return Experiment{Name: name, Static: true,
		Run: func(Options) (*stats.Table, error) { return f(), nil }}
}

// Registry lists every experiment in presentation order — the order
// `sdpcm-bench -exp all` prints them.
func Registry() []Experiment {
	return []Experiment{
		staticExp("table1", Table1),
		staticExp("capacity", Capacity),
		{Name: "fig4", Run: Fig4},
		{Name: "fig5", Run: Fig5},
		{Name: "fig11", Run: Fig11},
		{Name: "fig12", Run: Fig12},
		{Name: "fig13", Run: Fig13},
		{Name: "fig14", Run: Fig14},
		{Name: "fig15", Run: Fig15},
		{Name: "fig16", Run: Fig16},
		{Name: "fig17", Run: Fig17},
		{Name: "fig18", Run: Fig18},
		{Name: "fig19", Run: Fig19},
		staticExp("overhead", Overhead),
		{Name: "fig-topo2", Run: FigTopo2},
	}
}

// ExperimentNames returns the registry's names in order.
func ExperimentNames() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// ByName resolves one registry entry.
func ByName(name string) (Experiment, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (registered: %s)",
		name, strings.Join(ExperimentNames(), "|"))
}

// FigTopo2 demonstrates the declarative topology layer on the two-module
// demo spec (topo.Demo2): a "near" DIMM running basic VnC next to a "far"
// CXL-attached module (600-cycle link) running LazyCorrection with ECP-6.
// Cores alternate between modules, so each benchmark splits its footprint
// across both; the table reports whole-system CPI plus each module's write
// volume and corrections-per-write — the far module parks WD errors lazily
// while the near one corrects eagerly.
func FigTopo2(o Options) (*stats.Table, error) {
	o = o.normalized()
	if o.Topology.IsDefault() {
		o.Topology = topo.Demo2()
	}
	specs := runner.Grid{
		Schemes:    []core.Scheme{core.Baseline()},
		Benchmarks: o.Benchmarks,
	}.Expand()
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Topology demo: near DIMM (VnC) + far CXL module (LazyC, ECP-6)",
		"cpi", "near-writes", "near-corr/wr", "far-writes", "far-corr/wr")
	for i, sp := range specs {
		r := res[i]
		t.Set(sp.Bench, "cpi", r.CPI)
		for _, m := range r.Modules {
			t.Set(sp.Bench, m.Name+"-writes", float64(m.MC.WriteOps))
			t.Set(sp.Bench, m.Name+"-corr/wr", m.CorrectionsPerWrite())
		}
	}
	t.AddGeoMeanRow()
	return t, nil
}

// Overhead regenerates the §6.2 hardware-cost analysis.
func Overhead() *stats.Table {
	t := stats.NewTable("§6.2: design overhead", "value")
	t.SetFormat("%12.1f")
	// PreRead: two flag bits and two 64B buffers per write-queue entry, 32
	// entries, 2 buffers: (64B+2b)*32*2 ≈ 4KB (paper's arithmetic).
	prBits := (64*8 + 2) * 32 * 2
	t.Set("PreRead buffer bits per bank", "value", float64(prBits))
	t.Set("PreRead buffer KB per bank", "value", float64(prBits)/8/1024)
	t.Set("(n:m) page-table tag bits", "value", 4) // 16 allocators
	t.Set("ECP entries per 64B line", "value", float64(core.DefaultECPEntries))
	t.Set("ECP bits per entry", "value", 10)
	t.Set("DIN aux bits per 64B line", "value", 32)
	return t
}
