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
	"container/heap"
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
	"sdpcm/internal/weargap"
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
	Streams []trace.Stream
	// MutateChunkProb is the per-16-bit-chunk rewrite probability used for
	// replayed writes (<=0 selects a typical 0.15).
	MutateChunkProb float64
	// RefsPerCore is the number of main-memory references each core
	// replays (the paper uses 10M; benches use less, shape-preserving).
	RefsPerCore int
	// Topology, when set to a non-default spec, runs the multi-module
	// simulator: each module gets its own device, allocator, per-bank
	// controllers and labeled RNG subtree, cores are assigned to modules
	// round-robin, and per-module link latency is charged on every request
	// and response. Nil (or topo.Default()) selects the classic
	// single-DIMM path with byte-identical results to earlier versions.
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
	// and one controller-mediated line copy per psi writes per row.
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
	// drain) in Result.Metrics.Events. Implies metrics collection.
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

	// WearMoves counts Start-Gap line copies (when WearLevelPsi > 0).
	WearMoves uint64

	// Metrics is the run's observability snapshot — every module counter,
	// the latency/occupancy histograms and (with Config.TraceEvents) the
	// event-trace tail. Nil unless Config.CollectMetrics or
	// Config.TraceEvents enabled collection.
	Metrics *metrics.Snapshot

	// Heatmap is the WD spatial accumulation (Config.HeatmapRegions > 0):
	// per bank × line-region injected flips, parked errors and cascade
	// activity. Nil when disabled. Under a multi-module topology the
	// per-module heatmaps are stacked bank-major in module order (Banks is
	// the sum over modules).
	Heatmap *wd.HeatmapSnapshot

	// Modules holds the per-module breakdown of a multi-module topology
	// run, in module order. Empty on the classic single-DIMM path.
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

// mutator synthesises write-back payloads; live generators and the replay
// Mutator both satisfy it. Payloads are drawn (consuming the per-core RNG in
// program order) separately from their application to the line's latest
// content.
type mutator interface {
	DrawMutation() workload.Mutation
}

// corePending is the per-core event state. mod is the owning module index of
// a multi-module run (always 0 on the classic path).
type corePending struct {
	id     int
	mod    int
	time   uint64
	stream trace.Stream
	mut    mutator
	as     *vm.AddressSpace
	refs   int
	instrs uint64
}

// coreHeap orders cores by next event time.
type coreHeap []*corePending

func (h coreHeap) Len() int { return len(h) }
func (h coreHeap) Less(i, j int) bool {
	return h[i].time < h[j].time || (h[i].time == h[j].time && h[i].id < h[j].id)
}
func (h coreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)   { *h = append(*h, x.(*corePending)) }
func (h *coreHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Scheme.Validate(); err != nil {
		return Result{}, err
	}
	if !cfg.Topology.IsDefault() {
		return runMulti(cfg)
	}
	root := rng.New(cfg.Seed)

	dev, err := pcm.NewDevice(pcm.Config{
		Pages:    cfg.MemPages,
		FillSeed: root.SplitLabeled("fill").Uint64(),
	})
	if err != nil {
		return Result{}, err
	}
	allocator, err := alloc.New(cfg.MemPages, cfg.RegionPages)
	if err != nil {
		return Result{}, err
	}
	// Per-bank RNG streams: the root's "mc" child seeds one labeled stream
	// per bank, so a bank's stochastic disturbance draws depend only on
	// (seed, bank, that bank's op sequence), never on global call order. The
	// goldens are pinned to this decomposition.
	bankRngs := root.SplitLabeled("mc").SplitLabeledSeq("bank", pcm.NumBanks)
	p, err := newBankPlane(cfg, dev, func() mc.Config { return cfg.Scheme.MCConfig(cfg.WriteQueueCap) }, allocator, bankRngs)
	if err != nil {
		return Result{}, err
	}

	type coreSrc struct {
		stream trace.Stream
		mut    mutator
	}
	var srcs []coreSrc
	if len(cfg.Streams) > 0 {
		wseed := root.SplitLabeled("mutator").Uint64()
		for i, s := range cfg.Streams {
			srcs = append(srcs, coreSrc{
				stream: s,
				mut:    workload.NewMutator(cfg.MutateChunkProb, wseed+uint64(i)*0x9e3779b97f4a7c15),
			})
		}
	} else {
		gens, err := cfg.Mix.Generators(root.SplitLabeled("workload").Uint64())
		if err != nil {
			return Result{}, err
		}
		for _, g := range gens {
			srcs = append(srcs, coreSrc{stream: g, mut: g})
		}
	}

	if len(cfg.CoreTags) > 0 && len(cfg.CoreTags) != len(srcs) {
		return Result{}, fmt.Errorf("sim: %d CoreTags for %d cores", len(cfg.CoreTags), len(srcs))
	}
	h := make(coreHeap, 0, len(srcs))
	cores := make([]*corePending, len(srcs))
	for i, src := range srcs {
		tag := cfg.Scheme.Tag
		if len(cfg.CoreTags) > 0 {
			tag = cfg.CoreTags[i]
		}
		as, err := vm.NewAddressSpace(allocator, tag, 0)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &corePending{id: i, stream: src.stream, mut: src.mut, as: as}
		h = append(h, cores[i])
	}
	heap.Init(&h)

	mixName := cfg.Mix.Name
	if len(cfg.Streams) > 0 {
		mixName = "trace-replay"
	}
	var wl *weargap.IntraRow
	if cfg.WearLevelPsi > 0 {
		wl, err = weargap.NewIntraRow(cfg.WearLevelPsi)
		if err != nil {
			return Result{}, err
		}
	}
	// remap applies the wear-leveling rotation; identity when disabled.
	// The shadow map is keyed by logical address so integrity tracks lines
	// across rotations.
	remap := func(a pcm.LineAddr) pcm.LineAddr {
		if wl == nil {
			return a
		}
		return wl.MapAddr(a)
	}
	res := Result{Scheme: cfg.Scheme.Name, Mix: mixName}

	// sumCounters gathers the orchestrator-side snapshot contribution.
	sumCounters := func(now uint64) simCounters {
		sc := simCounters{cycles: now}
		for _, c := range cores {
			sc.instructions += c.instrs
			sc.tlbMisses += c.as.TLB.Misses
			sc.pageFaults += c.as.Faults
		}
		if wl != nil {
			sc.wearMoves = wl.Moves
		}
		return sc
	}
	snapshotting := cfg.SnapshotInterval > 0 && cfg.OnSnapshot != nil
	nextSnap := cfg.SnapshotInterval

	ckpt := runState{
		cfg: cfg, p: p, allocator: allocator,
		cores: cores, h: &h, wl: wl, nextSnap: nextSnap,
	}
	checkpointing := cfg.CheckpointEvery > 0 && cfg.CheckpointPath != ""
	if checkpointing || cfg.ResumeFrom != "" {
		// All controllers share one scheme config; checking bank 0 covers
		// every bank.
		if err := p.ctrls[0].CheckpointSupported(); err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrCheckpointUnsupported, err)
		}
	}
	if cfg.ResumeFrom != "" {
		active, err := ckpt.restoreCheckpoint(cfg.ResumeFrom)
		if err != nil {
			return Result{}, err
		}
		h = h[:0]
		for _, c := range cores {
			if active[c.id] {
				h = append(h, c)
			}
		}
		// (time, id) totally orders cores, so the rebuilt heap dispatches
		// in exactly the order the checkpointing run would have.
		heap.Init(&h)
		nextSnap = ckpt.nextSnap
	}

	for h.Len() > 0 {
		c := h[0]
		rec, ok := c.stream.Next()
		if !ok {
			heap.Pop(&h) // replayed trace exhausted
			continue
		}
		// Non-memory instructions: 1 cycle each on the in-order core.
		c.time += uint64(rec.Gap)
		c.instrs += uint64(rec.Gap) + 1
		logical, err := translate(c, rec, wl != nil)
		if err != nil {
			return Result{}, fmt.Errorf("core %d: %w", c.id, err)
		}
		addr := remap(logical)
		if rec.Kind == trace.Read {
			done, err := p.read(c.time, addr, logical)
			if err != nil {
				return Result{}, err
			}
			c.time = done // blocking load
		} else {
			m := c.mut.DrawMutation()
			p.write(c.time, addr, logical, m)
			c.time++
			if wl != nil {
				if from, to, moved := wl.NoteWrite(addr); moved {
					// Start-Gap copy, routed through the controller so it
					// forwards from queued writes and undergoes VnC.
					p.copyLine(c.time, from, to)
				}
			}
		}
		c.refs++
		if c.refs >= cfg.RefsPerCore {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		if snapshotting && c.time >= nextSnap {
			cfg.OnSnapshot(p.assembleSnapshot(sumCounters(c.time)))
			for nextSnap <= c.time {
				nextSnap += cfg.SnapshotInterval
			}
		}
		ckpt.totalRefs++
		if checkpointing && ckpt.totalRefs%uint64(cfg.CheckpointEvery) == 0 {
			ckpt.nextSnap = nextSnap
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
		res.Instructions += c.instrs
		res.TLBMisses += c.as.TLB.Misses
		res.PageFaults += c.as.Faults
	}
	end := p.flushAll(maxEnd)
	if err := p.checkShadow(remap, ""); err != nil {
		return Result{}, err
	}
	if wl != nil {
		res.WearMoves = wl.Moves
	}
	res.Cycles = end
	if len(cores) > 0 {
		res.CPI = cpiSum / float64(len(cores))
	}
	res.MC, res.Dev, res.ECP, res.WD = p.mergedStats()
	if p.collecting() {
		res.Metrics = p.assembleSnapshot(simCounters{
			cycles:       res.Cycles,
			instructions: res.Instructions,
			tlbMisses:    res.TLBMisses,
			pageFaults:   res.PageFaults,
			wearMoves:    res.WearMoves,
		})
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(res.Metrics)
		}
	}
	res.Heatmap = p.hm.Snapshot()
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
