package sim

import (
	"container/heap"
	"fmt"
	"os"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
	"sdpcm/internal/vm"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// ModuleResult is one module's share of a multi-module run.
type ModuleResult struct {
	// Name, Scheme, Banks, Pages and LinkCycles echo the resolved topology
	// placement (Scheme is the run scheme's name when the module inherited
	// it).
	Name       string
	Scheme     string
	Banks      int
	Pages      int
	LinkCycles int

	MC  mc.Stats
	Dev pcm.Stats
	ECP ecp.Stats
	WD  wd.Stats
}

// CorrectionsPerWrite is the Figure 12 metric restricted to one module.
func (m ModuleResult) CorrectionsPerWrite() float64 {
	if m.MC.WriteOps == 0 {
		return 0
	}
	return float64(m.MC.CorrectionWrites) / float64(m.MC.WriteOps)
}

// moduleRun bundles one module's live machinery: its own device, buddy
// allocator (strip width = the module's bank count) and bank plane.
// Addresses handed to a module's plane are module-local — the address-range
// router assigns each core to one module and its address space allocates
// module-local frames, so no global translation exists on the hot path.
type moduleRun struct {
	pl     topo.Placement
	scheme core.Scheme
	link   uint64
	dev    *pcm.Device
	alloc  *alloc.Allocator
	p      *bankPlane
}

// moduleTiming builds the module's device timing: the Table 2 defaults with
// any per-module overrides applied.
func moduleTiming(m topo.Module) pcm.Timing {
	t := pcm.DefaultTiming
	if m.ReadCycles > 0 {
		t.ReadCycles = m.ReadCycles
	}
	if m.SetCycles > 0 {
		t.SetCycles = m.SetCycles
	}
	if m.ResetCycles > 0 {
		t.ResetCycles = m.ResetCycles
	}
	if m.ParallelBits > 0 {
		t.ParallelBits = m.ParallelBits
	}
	return t
}

// schemeKnown is the topo.Spec.Validate lookup backed by the live scheme
// registry.
func schemeKnown(name string) bool {
	_, err := core.ByName(name, 0)
	return err == nil
}

// newModuleRun constructs module i of the topology. sub must be the module's
// labeled RNG subtree (root "module-<i>"): its "fill" child seeds the
// device background and its "mc" child seeds the per-bank streams, exactly
// mirroring the single-module label order beneath the module root.
func newModuleRun(cfg Config, i int, pl topo.Placement, sub *rng.Rand) (*moduleRun, error) {
	scheme := cfg.Scheme
	if pl.Scheme != "" {
		s, err := core.ByName(pl.Scheme, pl.ECPEntries)
		if err != nil {
			return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
		}
		scheme = s
	}
	if err := scheme.Validate(); err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
	}
	timing := moduleTiming(pl.Module)
	dev, err := pcm.NewDevice(pcm.Config{
		Pages:    pl.Pages,
		Banks:    pl.Banks,
		Timing:   timing,
		FillSeed: sub.SplitLabeled("fill").Uint64(),
	})
	if err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
	}
	allocator, err := alloc.NewWithStrip(pl.Pages, pl.RegionPages, pl.Banks)
	if err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
	}
	bankRngs := sub.SplitLabeled("mc").SplitLabeledSeq("bank", pl.Banks)

	m := &moduleRun{pl: pl, scheme: scheme, link: uint64(pl.LinkCycles), dev: dev, alloc: allocator}
	mcCfg := func() mc.Config {
		c := scheme.MCConfig(cfg.WriteQueueCap)
		c.Timing = timing
		if pl.WordLineRate > 0 {
			c.Rates.WordLine = pl.WordLineRate
		}
		if pl.BitLineRate > 0 {
			c.Rates.BitLine = pl.BitLineRate
		}
		return c
	}
	m.p, err = newBankPlane(cfg, dev, mcCfg, allocator, bankRngs)
	if err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
	}
	return m, nil
}

// runMulti is the multi-module variant of Run: one moduleRun per topology
// entry, cores assigned round-robin (core i → module i mod M), link latency
// charged on every request and response of a CXL-attached module. RNG label
// order is fixed — "module-<i>" subtrees in module order, then the shared
// "mutator"/"workload" stream — so results depend only on (seed, topology,
// workload), never on scheduling.
func runMulti(cfg Config) (Result, error) {
	spec := cfg.Topology
	if err := spec.Validate(schemeKnown); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if cfg.WearLevelPsi > 0 {
		return Result{}, fmt.Errorf("sim: intra-row wear leveling is not supported under a multi-module topology")
	}
	placements, err := spec.Resolve(cfg.MemPages, cfg.RegionPages)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	root := rng.New(cfg.Seed)
	mods := make([]*moduleRun, len(placements))
	for i, pl := range placements {
		m, err := newModuleRun(cfg, i, pl, root.SplitLabeled(fmt.Sprintf("module-%d", i)))
		if err != nil {
			return Result{}, err
		}
		mods[i] = m
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
		mod := i % len(mods)
		tag := mods[mod].scheme.Tag
		if len(cfg.CoreTags) > 0 {
			tag = cfg.CoreTags[i]
		}
		as, err := vm.NewAddressSpace(mods[mod].alloc, tag, 0)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &corePending{id: i, mod: mod, stream: src.stream, mut: src.mut, as: as}
		h = append(h, cores[i])
	}
	heap.Init(&h)

	mixName := cfg.Mix.Name
	if len(cfg.Streams) > 0 {
		mixName = "trace-replay"
	}
	res := Result{Scheme: cfg.Scheme.Name, Mix: mixName}

	sumCounters := func(now uint64) simCounters {
		sc := simCounters{cycles: now}
		for _, c := range cores {
			sc.instructions += c.instrs
			sc.tlbMisses += c.as.TLB.Misses
			sc.pageFaults += c.as.Faults
		}
		return sc
	}
	snapshotting := cfg.SnapshotInterval > 0 && cfg.OnSnapshot != nil
	nextSnap := cfg.SnapshotInterval

	ckpt := multiState{cfg: cfg, spec: spec, mods: mods, cores: cores, h: &h, nextSnap: nextSnap}
	checkpointing := cfg.CheckpointEvery > 0 && cfg.CheckpointPath != ""
	if checkpointing || cfg.ResumeFrom != "" {
		for _, m := range mods {
			if err := m.p.ctrls[0].CheckpointSupported(); err != nil {
				return Result{}, fmt.Errorf("%w: module %s: %v", ErrCheckpointUnsupported, m.pl.Name, err)
			}
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
		c.time += uint64(rec.Gap)
		c.instrs += uint64(rec.Gap) + 1
		m := mods[c.mod]
		addr, err := translate(c, rec, false)
		if err != nil {
			return Result{}, fmt.Errorf("core %d: %w", c.id, err)
		}
		if rec.Kind == trace.Read {
			// The request crosses the link before the module sees it and
			// the data crosses back: both legs charge the module's link
			// latency on the blocking load.
			done, err := m.p.read(c.time+m.link, addr, addr)
			if err != nil {
				return Result{}, err
			}
			c.time = done + m.link
		} else {
			mut := c.mut.DrawMutation()
			m.p.write(c.time+m.link, addr, addr, mut)
			c.time++ // posted write: the core only pays the issue cycle
		}
		c.refs++
		if c.refs >= cfg.RefsPerCore {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		if snapshotting && c.time >= nextSnap {
			cfg.OnSnapshot(assembleMultiSnapshot(mods, cfg.TraceEvents, sumCounters(c.time)))
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
	var end uint64
	for _, m := range mods {
		end = max(end, m.p.flushAll(maxEnd))
	}
	for _, m := range mods {
		if err := m.p.checkShadow(func(a pcm.LineAddr) pcm.LineAddr { return a }, "module "+m.pl.Name+" "); err != nil {
			return Result{}, err
		}
	}
	res.Cycles = end
	if len(cores) > 0 {
		res.CPI = cpiSum / float64(len(cores))
	}
	res.Modules = make([]ModuleResult, len(mods))
	for i, m := range mods {
		mr := ModuleResult{
			Name:       m.pl.Name,
			Scheme:     m.scheme.Name,
			Banks:      m.pl.Banks,
			Pages:      m.pl.Pages,
			LinkCycles: m.pl.LinkCycles,
		}
		mr.MC, mr.Dev, mr.ECP, mr.WD = m.p.mergedStats()
		res.Modules[i] = mr
		res.MC.Add(mr.MC)
		res.Dev.Add(mr.Dev)
		res.ECP.Add(mr.ECP)
		res.WD.Add(mr.WD)
	}
	if mods[0].p.collecting() {
		res.Metrics = assembleMultiSnapshot(mods, cfg.TraceEvents, simCounters{
			cycles:       res.Cycles,
			instructions: res.Instructions,
			tlbMisses:    res.TLBMisses,
			pageFaults:   res.PageFaults,
		})
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(res.Metrics)
		}
	}
	res.Heatmap = stackHeatmaps(mods)
	return res, nil
}

// stackHeatmaps concatenates the per-module heatmaps bank-major in module
// order: global bank b is module m's bank b - sum(banks of modules before
// m). Nil when heatmaps are disabled.
func stackHeatmaps(mods []*moduleRun) *wd.HeatmapSnapshot {
	var out *wd.HeatmapSnapshot
	for _, m := range mods {
		s := m.p.hm.Snapshot()
		if s == nil {
			continue
		}
		if out == nil {
			out = &wd.HeatmapSnapshot{}
		}
		out.Banks += s.Banks
		if s.Regions > out.Regions {
			out.Regions = s.Regions
		}
		out.Cells = append(out.Cells, s.Cells...)
	}
	return out
}

// assembleMultiSnapshot is bankPlane.assembleSnapshot generalized over
// modules: module stats are summed and rendered once, then every module's
// per-bank registries merge in module-major, bank-minor order, and the
// event-ring tails combine into one canonical bounded tail. Pure function of
// per-bank state.
func assembleMultiSnapshot(mods []*moduleRun, traceCap int, sc simCounters) *metrics.Snapshot {
	tmp := metrics.New()
	var mcS mc.Stats
	var devS pcm.Stats
	var ecpS ecp.Stats
	var wdS wd.Stats
	for _, m := range mods {
		a, b, c, d := m.p.mergedStats()
		mcS.Add(a)
		devS.Add(b)
		ecpS.Add(c)
		wdS.Add(d)
	}
	mcS.Publish(tmp)
	devS.Publish(tmp)
	ecpS.Publish(tmp)
	wdS.Publish(tmp)
	tmp.Counter("sim.instructions").Add(sc.instructions)
	tmp.Counter("sim.tlb_misses").Add(sc.tlbMisses)
	tmp.Counter("sim.page_faults").Add(sc.pageFaults)
	tmp.Counter("sim.wear_moves").Add(sc.wearMoves)
	tmp.Gauge("sim.cycles").Set(sc.cycles)
	s := tmp.Snapshot()
	var tails [][]metrics.Event
	var dropped []uint64
	for _, m := range mods {
		for b := range m.p.regs {
			bs := m.p.regs[b].Snapshot()
			if traceCap > 0 {
				tails = append(tails, bs.Events)
				dropped = append(dropped, bs.EventsDropped)
			}
			s = s.Merge(bs)
		}
	}
	if traceCap > 0 {
		s.Events, s.EventsDropped = metrics.MergeEventTails(traceCap, tails, dropped)
	} else {
		s.Events, s.EventsDropped = nil, 0
	}
	return s
}

// multiCheckpointVersion is the on-disk format of multi-module checkpoints.
// The classic single-DIMM path keeps writing checkpointVersion files, so old
// checkpoints stay loadable; a version mismatch between the two containers
// surfaces as a snap.VersionError wrapped in ErrResume.
const multiCheckpointVersion = 2

// multiState is runState's multi-module counterpart.
type multiState struct {
	cfg   Config
	spec  *topo.Spec
	mods  []*moduleRun
	cores []*corePending
	h     *coreHeap

	totalRefs uint64
	nextSnap  uint64
}

// identity extends the single-module identity with the canonical topology,
// so a checkpoint can never resume under a different module layout.
func (s *multiState) identity() string {
	return s.cfg.checkpointIdentity(len(s.cores)) + " topo=" + s.spec.Canon()
}

// encodeCheckpoint serializes the complete multi-module simulator state:
// the shared core states first, then each module's device, controllers,
// heatmap, allocator, registries and integrity shadow in module order.
func (s *multiState) encodeCheckpoint() []byte {
	e := snap.NewEncoder(multiCheckpointVersion)
	e.Begin("sim.multi")
	e.String(s.identity())
	e.U64(s.totalRefs)
	e.U64(s.nextSnap)

	active := make([]bool, len(s.cores))
	for _, c := range *s.h {
		active[c.id] = true
	}
	replay := len(s.cfg.Streams) > 0
	e.Uvarint(uint64(len(s.cores)))
	for i, c := range s.cores {
		e.Bool(active[i])
		e.U64(c.time)
		e.Uvarint(uint64(c.refs))
		e.U64(c.instrs)
		if replay {
			c.mut.(*workload.Mutator).EncodeState(e)
		} else {
			c.mut.(*workload.Generator).EncodeState(e)
		}
		c.as.EncodeState(e)
	}

	e.Uvarint(uint64(len(s.mods)))
	for _, m := range s.mods {
		m.dev.EncodeState(e)
		for b := range m.p.ctrls {
			m.p.ctrls[b].EncodeState(e)
		}
		m.p.hm.EncodeState(e)
		m.alloc.EncodeState(e)
		for b := range m.p.regs {
			m.p.regs[b].EncodeState(e) // nil-safe: disabled registries encode as absent
		}
		m.p.encodeShadow(e)
	}
	e.End()
	return e.Finish()
}

// restoreCheckpoint loads a multi-module checkpoint into the freshly
// constructed run and returns each core's heap-membership flag.
func (s *multiState) restoreCheckpoint(path string) ([]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, resumeErr(err)
	}
	d, err := snap.NewDecoder(data, multiCheckpointVersion)
	if err != nil {
		return nil, resumeErr(err)
	}
	d.Begin("sim.multi")
	if id := d.String(); d.Err() == nil && id != s.identity() {
		return nil, resumeErr(fmt.Errorf("checkpoint belongs to a different configuration:\n  theirs: %s\n  ours:   %s",
			id, s.identity()))
	}
	s.totalRefs = d.U64()
	s.nextSnap = d.U64()

	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.cores)) {
		return nil, resumeErr(fmt.Errorf("checkpoint has %d cores, this run has %d", n, len(s.cores)))
	}
	active := make([]bool, len(s.cores))
	replay := len(s.cfg.Streams) > 0
	for i, c := range s.cores {
		active[i] = d.Bool()
		c.time = d.U64()
		c.refs = int(d.Uvarint())
		c.instrs = d.U64()
		if replay {
			err = c.mut.(*workload.Mutator).DecodeState(d)
		} else {
			err = c.mut.(*workload.Generator).DecodeState(d)
		}
		if err != nil {
			return nil, resumeErr(err)
		}
		if err := c.as.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
	}

	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.mods)) {
		return nil, resumeErr(fmt.Errorf("checkpoint has %d modules, this run has %d", n, len(s.mods)))
	}
	for _, m := range s.mods {
		if err := m.dev.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		for b := range m.p.ctrls {
			if err := m.p.ctrls[b].DecodeState(d); err != nil {
				return nil, resumeErr(err)
			}
		}
		if err := m.p.hm.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		if err := m.alloc.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		for b := range m.p.regs {
			if err := m.p.regs[b].DecodeState(d); err != nil {
				return nil, resumeErr(err)
			}
		}
		if err := m.p.decodeShadow(d); err != nil {
			return nil, resumeErr(err)
		}
	}
	d.End()
	if err := d.Close(); err != nil {
		return nil, resumeErr(err)
	}

	if replay {
		for _, c := range s.cores {
			if err := fastForward(c.stream, c.refs); err != nil {
				return nil, resumeErr(fmt.Errorf("core %d: %w", c.id, err))
			}
		}
	}
	return active, nil
}
