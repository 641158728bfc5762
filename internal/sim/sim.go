// Package sim is the full-system simulator of §5.1: eight in-order cores
// replaying calibrated main-memory reference streams against the SD-PCM
// memory controller, with per-process address spaces allocated by the
// WD-aware buddy system and the (n:m) tag flowing TLB → controller.
//
// Cores are single-issue and in-order (Table 2): non-memory instructions
// cost one cycle, demand reads block the core until the controller returns
// data, and writes are posted (they stall the core only indirectly, by
// write bursts blocking that bank's reads). Cores interact only through
// banks, so the simulation processes core events in global time order from
// a small binary heap — a conservative event-driven model that needs no
// rollback.
package sim

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
	"sdpcm/internal/vm"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Scheme is the design point under test.
	Scheme core.Scheme
	// Mix names the per-core benchmarks (§5.2: one copy per core).
	// Ignored when Streams is set.
	Mix workload.MixSpec
	// Streams replays pre-captured traces instead of live generators, one
	// stream per core (the sdpcm-trace workflow). Replayed traces carry no
	// data payloads; write-backs are synthesised with MutateChunkProb.
	// Each stream is read ahead of the run loop on a goroutine of its own,
	// never past RefsPerCore records and never after Run returns, so no
	// two cores may share one.
	Streams []trace.Stream
	// MutateChunkProb is the per-16-bit-chunk rewrite probability used for
	// replayed writes (<=0 selects a typical 0.15).
	MutateChunkProb float64
	// RefsPerCore is the number of main-memory references each core
	// replays (the paper uses 10M; benches use less, shape-preserving).
	RefsPerCore int
	// Topology lays memory out as modules: each gets its own device,
	// allocator, controller and RNG subtree, cores are assigned
	// to modules round-robin, and per-module link latency is charged on
	// every request and response. Nil means topo.Default(), one 16-bank
	// module holding all of memory; it runs the same loop and draws its
	// RNG from the root itself, so its results are byte-identical to the
	// original single-DIMM simulator's.
	Topology *topo.Spec
	// MemPages is the device size in pages (default 2^21 = 8 GB).
	MemPages int
	// RegionPages is the (n:m) marking-region span (default 16384 pages =
	// 64 MB as in §4.4).
	RegionPages int
	// WriteQueueCap per bank (default 32, Table 2).
	WriteQueueCap int
	// Seed drives every stochastic element of the run.
	Seed uint64
	// CoreTags overrides the allocator tag per core (§4.4's usage model:
	// the OS performs (n:m) allocation only for processes that request it,
	// so a high-priority write-intensive app can run under (1:2) while its
	// neighbours use the default allocator). Empty = every core uses
	// Scheme.Tag. Length must match the core count when set.
	CoreTags []alloc.Tag
	// WearLevelPsi enables intra-row Start-Gap wear leveling (§6.7 design
	// alternative, [20]) with the given gap period (writes between gap
	// movements; 0 disables). Costs one line slot per row (1.6% capacity)
	// and one controller-mediated line copy per psi writes per row. Under a
	// topology every module levels its own rows with its own write
	// counter.
	WearLevelPsi int
	// CollectMetrics attaches a metrics registry to the run: controller, WD
	// engine, ECP and device activity plus latency/occupancy distributions
	// are exported as Result.Metrics. Snapshots are deterministic — the same
	// config and seed produce byte-identical exports — and collection is
	// cheap but not free (the hot path gains histogram observations).
	CollectMetrics bool
	// TraceEvents, when positive, additionally keeps the last N typed
	// events (WD inject/detect/park/flush, VnC cascade steps, PreRead
	// issue/forward/hit, write-cancel preemptions, queue enqueue/stall/
	// drain) in Result.Metrics.Events. Every bank of every module emits
	// into one ring, so the tail is the run's last N events in emission
	// order (Seq is the run-wide emission index; Time is not monotonic
	// across banks). Implies metrics collection.
	TraceEvents int
	// HeatmapRegions, when positive, accumulates the WD spatial heatmap:
	// injected bit-line flips, LazyCorrection parks and correction writes
	// per bank × line-region (each bank's rows tiled into this many equal
	// regions), exported as Result.Heatmap. Independent of CollectMetrics.
	HeatmapRegions int
	// SnapshotInterval, when positive, invokes OnSnapshot with a mid-run
	// metrics snapshot every SnapshotInterval simulated cycles, so live
	// observers (the -listen HTTP server) see gauges move while a long run
	// is in flight. Implies metrics collection. The published snapshots are
	// deterministic; only their wall-clock arrival varies.
	SnapshotInterval uint64
	// OnSnapshot receives each mid-run snapshot (and, when set, a final one
	// just before Run returns). Called on the simulation goroutine — cheap
	// handlers only; publish-to-server callbacks should just swap a pointer.
	OnSnapshot func(*metrics.Snapshot)
	// CheckIntegrity maintains a shadow copy of every line the cores write
	// and verifies — on every read and again after the final flush — that
	// the memory system returns exactly what was stored, i.e. that no
	// write-disturbance error escaped VnC. Costs memory proportional to the
	// footprint; intended for tests.
	CheckIntegrity bool
	// CheckpointEvery, when positive together with CheckpointPath, writes a
	// versioned snapshot of the complete simulator state every
	// CheckpointEvery processed references (counted in program order).
	// Each write atomically replaces the previous file; a killed run loses
	// at most one interval of progress.
	CheckpointEvery int
	// CheckpointPath is where checkpoints are published (tmp-and-rename).
	CheckpointPath string
	// ResumeFrom, when set, loads a checkpoint written by a run with the
	// same configuration and continues it; the final Result is
	// byte-identical to the uninterrupted run's. Load or validation
	// failures wrap ErrResume so callers can fall back to a cold start.
	ResumeFrom string
}

func (c Config) normalized() Config {
	if c.MemPages <= 0 {
		c.MemPages = 1 << 21
	}
	if c.RegionPages <= 0 {
		c.RegionPages = 16384
	}
	if c.RefsPerCore <= 0 {
		c.RefsPerCore = 100000
	}
	if len(c.Mix.Cores) == 0 && len(c.Streams) == 0 {
		c.Mix = workload.HomogeneousMix(c.Mix.Name, 8)
	}
	return c
}

// Result aggregates a run's outcome.
type Result struct {
	Scheme string
	Mix    string

	// Cycles is the makespan (last core finish, including the final queue
	// flush); Instructions is the total instruction count across cores.
	Cycles       uint64
	Instructions uint64
	// CPI is the mean per-core cycles-per-instruction — the §5.2 metric's
	// numerator/denominator source.
	CPI float64

	MC  mc.Stats
	Dev pcm.Stats
	ECP ecp.Stats
	WD  wd.Stats

	TLBMisses  uint64
	PageFaults uint64

	// WearMoves counts Start-Gap line copies over all modules (when
	// WearLevelPsi > 0).
	WearMoves uint64

	// Metrics is the run's observability snapshot — every module counter,
	// the latency/occupancy histograms and (with Config.TraceEvents) the
	// event-trace tail. Nil unless Config.CollectMetrics or
	// Config.TraceEvents enabled collection.
	Metrics *metrics.Snapshot

	// Heatmap is the WD spatial accumulation (Config.HeatmapRegions > 0):
	// per bank × line-region injected flips, parked errors and cascade
	// activity. Nil when disabled. Under a topology the per-module heatmaps
	// are stacked bank-major in module order (Banks is the sum over
	// modules).
	Heatmap *wd.HeatmapSnapshot

	// Modules holds the per-module breakdown of a run with a non-default
	// Config.Topology, in module order. Nil under the default topology,
	// whose one module's stats are the run totals.
	Modules []ModuleResult `json:",omitempty"`
}

// CorrectionsPerWrite is the Figure 12 metric.
func (r Result) CorrectionsPerWrite() float64 {
	if r.MC.WriteOps == 0 {
		return 0
	}
	return float64(r.MC.CorrectionWrites) / float64(r.MC.WriteOps)
}

// WordLineErrorsPerWrite is the Figure 4(a) metric.
func (r Result) WordLineErrorsPerWrite() float64 {
	if r.WD.WritesObserved == 0 {
		return 0
	}
	return float64(r.WD.InLineErrors+r.WD.EdgeErrors) / float64(r.WD.WritesObserved)
}

// BitLineErrorsPerAdjacentLine is the Figure 4(b) metric: average manifested
// WD errors per adjacent line per write.
func (r Result) BitLineErrorsPerAdjacentLine() float64 {
	if r.WD.WritesObserved == 0 {
		return 0
	}
	return float64(r.WD.BitLineFlips) / float64(2*r.WD.WritesObserved)
}

// DataChipLifetime is the Figure 17 metric: the fraction of data-chip cell
// writes that are useful (non-correction) work. Corrections, in-line
// rewrites and edge heals consume endurance without storing new data.
func (r Result) DataChipLifetime() float64 {
	useful := r.Dev.CellWrites() - r.Dev.CorrectionResetPulses
	overhead := r.Dev.CorrectionResetPulses + r.WD.RewritePulses + r.WD.EdgeHealPulses
	total := float64(useful) + float64(overhead)
	if total == 0 {
		return 1
	}
	return float64(useful) / total
}

// ECPChipLifetime is the Figure 18 metric. Without WD, the ECP chip sees
// roughly a tenth of the data chip's cell-change rate (§6.7); LazyCorrection
// adds 10 ECP-chip cell writes per parked error.
func (r Result) ECPChipLifetime() float64 {
	base := float64(r.Dev.CellWrites()) / 10
	extra := float64(r.ECP.ECPBitWrites)
	if base+extra == 0 {
		return 1
	}
	return base / (base + extra)
}

// corePending is the per-core event state. mod is the index of the module
// the core's address space allocates from; in supplies its references and
// write-back payloads.
type corePending struct {
	id     int
	mod    int
	time   uint64
	in     *prefetch
	as     *vm.AddressSpace
	refs   int
	instrs uint64
}

// coreHeap is a binary min-heap of cores by next event time, ties broken by
// core id. (time, id) totally orders the cores, so the dispatch order is the
// same whatever the heap's layout.
type coreHeap []*corePending

func (h coreHeap) less(i, j int) bool {
	return h[i].time < h[j].time || (h[i].time == h[j].time && h[i].id < h[j].id)
}

// down sifts h[i] down to its place; the loop calls it on the root after
// the root's time grows.
func (h coreHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// init orders an arbitrary slice into a heap.
func (h coreHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes the root.
func (h *coreHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	(*h)[n] = nil
	*h = (*h)[:n]
	h.down(0)
}

// Run executes one simulation over the resolved topology: one moduleRun per
// module, cores assigned round-robin (core i → module i mod M), link latency
// charged on every request and response of a link-attached module. RNG
// label order is fixed — the module subtrees in module order, then the
// shared "mutator"/"workload" stream — so results depend only on (seed,
// topology, workload), never on scheduling.
func Run(cfg Config) (Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Scheme.Validate(); err != nil {
		return Result{}, err
	}
	spec := cfg.Topology
	if spec == nil {
		spec = topo.Default()
	}
	if err := spec.Validate(schemeKnown); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	placements, err := spec.Resolve(cfg.MemPages, cfg.RegionPages)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	// One registry and event ring serve every bank of every module.
	var reg *metrics.Registry
	if cfg.CollectMetrics || cfg.TraceEvents > 0 || cfg.SnapshotInterval > 0 {
		reg = metrics.New()
		reg.EnableTrace(cfg.TraceEvents)
	}
	root := rng.New(cfg.Seed)
	mods := make([]*moduleRun, len(placements))
	for i, pl := range placements {
		// The default spec's one module draws straight from the root, which
		// keeps every single-DIMM result byte-identical to the original
		// simulator's.
		sub := root
		if !spec.IsDefault() {
			sub = root.SplitLabeled(fmt.Sprintf("module-%d", i))
		}
		if mods[i], err = newModuleRun(cfg, pl, sub, reg); err != nil {
			return Result{}, err
		}
	}

	var srcs []*prefetch
	if len(cfg.Streams) > 0 {
		wseed := root.SplitLabeled("mutator").Uint64()
		for i, s := range cfg.Streams {
			srcs = append(srcs, replayPrefetch(s,
				workload.NewMutator(cfg.MutateChunkProb, wseed+uint64(i)*0x9e3779b97f4a7c15)))
		}
	} else {
		gens, err := cfg.Mix.Generators(root.SplitLabeled("workload").Uint64())
		if err != nil {
			return Result{}, err
		}
		for _, g := range gens {
			srcs = append(srcs, livePrefetch(g))
		}
	}
	if len(cfg.CoreTags) > 0 && len(cfg.CoreTags) != len(srcs) {
		return Result{}, fmt.Errorf("sim: %d CoreTags for %d cores", len(cfg.CoreTags), len(srcs))
	}

	h := make(coreHeap, 0, len(srcs))
	cores := make([]*corePending, len(srcs))
	for i, src := range srcs {
		mod := i % len(mods)
		tag := mods[mod].scheme.Tag
		if len(cfg.CoreTags) > 0 {
			tag = cfg.CoreTags[i]
		}
		as, err := vm.NewAddressSpace(mods[mod].alloc, tag, 0)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &corePending{id: i, mod: mod, in: src, as: as}
		h = append(h, cores[i])
	}
	h.init()

	// counters gathers the orchestrator-side snapshot contribution.
	counters := func(now uint64) simCounters {
		sc := simCounters{cycles: now}
		for _, c := range cores {
			sc.instructions += c.instrs
			sc.tlbMisses += c.as.TLB.Misses
			sc.pageFaults += c.as.Faults
		}
		for _, m := range mods {
			sc.wearMoves += m.wearMoves()
		}
		return sc
	}
	snapshotting := cfg.SnapshotInterval > 0 && cfg.OnSnapshot != nil
	ckpt := runState{cfg: cfg, reg: reg, mods: mods, cores: cores, h: &h, nextSnap: cfg.SnapshotInterval}
	checkpointing := cfg.CheckpointEvery > 0 && cfg.CheckpointPath != ""
	if cfg.ResumeFrom != "" {
		if err := ckpt.restoreCheckpoint(cfg.ResumeFrom); err != nil {
			return Result{}, err
		}
	}
	stop := startPrefetch(cores, h, cfg.RefsPerCore)
	defer stop()

	for len(h) > 0 {
		c := h[0]
		rec, ok := c.in.Next()
		if !ok {
			h.pop() // replayed trace exhausted
			continue
		}
		// Non-memory instructions: 1 cycle each on the in-order core.
		c.time += uint64(rec.Gap)
		c.instrs += uint64(rec.Gap) + 1
		m := mods[c.mod]
		logical, err := translate(c, rec, m.wl != nil)
		if err != nil {
			return Result{}, fmt.Errorf("core %d: %w", c.id, err)
		}
		if rec.Kind == trace.Read {
			done, err := m.read(c.time, logical)
			if err != nil {
				return Result{}, err
			}
			c.time = done // blocking load
		} else {
			m.write(c.time, logical, c.in.DrawMutation())
			c.time++ // posted write: the core only pays the issue cycle
		}
		c.refs++
		if c.refs >= cfg.RefsPerCore {
			h.pop()
		} else {
			h.down(0)
		}
		if snapshotting && c.time >= ckpt.nextSnap {
			cfg.OnSnapshot(assembleSnapshot(reg, mods, counters(c.time)))
			for ckpt.nextSnap <= c.time {
				ckpt.nextSnap += cfg.SnapshotInterval
			}
		}
		ckpt.totalRefs++
		if checkpointing && ckpt.totalRefs%uint64(cfg.CheckpointEvery) == 0 {
			if err := writeCheckpoint(cfg.CheckpointPath, ckpt.encodeCheckpoint()); err != nil {
				return Result{}, err
			}
		}
	}

	var maxEnd uint64
	var cpiSum float64
	for _, c := range cores {
		maxEnd = max(maxEnd, c.time)
		if c.instrs > 0 {
			cpiSum += float64(c.time) / float64(c.instrs)
		}
	}
	var end uint64
	for _, m := range mods {
		end = max(end, m.ctrl.Flush(maxEnd))
	}
	for _, m := range mods {
		if err := m.checkShadow(); err != nil {
			return Result{}, err
		}
	}

	sc := counters(end)
	res := Result{
		Scheme:       cfg.Scheme.Name,
		Mix:          cfg.Mix.Name,
		Cycles:       sc.cycles,
		Instructions: sc.instructions,
		TLBMisses:    sc.tlbMisses,
		PageFaults:   sc.pageFaults,
		WearMoves:    sc.wearMoves,
		Heatmap:      stackHeatmaps(mods),
	}
	if len(cfg.Streams) > 0 {
		res.Mix = "trace-replay"
	}
	if len(cores) > 0 {
		res.CPI = cpiSum / float64(len(cores))
	}
	res.MC, res.Dev, res.ECP, res.WD = mergedStats(mods)
	if !spec.IsDefault() {
		res.Modules = make([]ModuleResult, len(mods))
		for i, m := range mods {
			mr := ModuleResult{
				Name:       m.pl.Name,
				Scheme:     m.scheme.Name,
				Banks:      m.pl.Banks,
				Pages:      m.pl.Pages,
				LinkCycles: m.pl.LinkCycles,
			}
			mr.MC, mr.Dev, mr.ECP, mr.WD = m.stats()
			res.Modules[i] = mr
		}
	}
	if reg != nil {
		res.Metrics = assembleSnapshot(reg, mods, sc)
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(res.Metrics)
		}
	}
	return res, nil
}

// translate maps a trace record's virtual line to its physical line (before
// any wear-leveling rotation). Under wear leveling each row reserves its
// last slot as the rolling spare, so the 64th line of each page folds onto
// the remaining 63 (the 1.6% capacity cost of the scheme).
func translate(c *corePending, rec trace.Record, wearLeveled bool) (pcm.LineAddr, error) {
	vpage := rec.Line / pcm.LinesPerPage
	slot := int(rec.Line % pcm.LinesPerPage)
	if wearLeveled && slot == pcm.LinesPerPage-1 {
		slot = int(rec.Line % (pcm.LinesPerPage - 1))
	}
	tr, _, err := c.as.Translate(vpage)
	if err != nil {
		return 0, err
	}
	return pcm.LineOf(tr.Frame, slot), nil
}
