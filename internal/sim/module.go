package sim

import (
	"fmt"
	"slices"
	"strings"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
	"sdpcm/internal/topo"
	"sdpcm/internal/wd"
	"sdpcm/internal/weargap"
	"sdpcm/internal/workload"
)

// ModuleResult is one module's share of a topology run.
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

// moduleRun bundles one module's live machinery: its device, its one memory
// controller (a queue and a disturbance engine per bank), its own buddy
// allocator (strip width = the module's bank count) and, with
// Config.WearLevelPsi, its own intra-row Start-Gap layer. Addresses handed
// to a module are module-local — the address-range router assigns each core
// to one module and its address space allocates module-local frames, so no
// global translation exists on the hot path.
type moduleRun struct {
	pl     topo.Placement
	scheme core.Scheme
	link   uint64
	alloc  *alloc.Allocator
	dev    *pcm.Device
	ctrl   *mc.Controller
	hm     *wd.Heatmap       // nil when disabled
	wl     *weargap.IntraRow // nil unless wear leveling is on
	// shadow is the integrity shadow (Config.CheckIntegrity): the last data
	// written to each line, keyed by logical (pre-wear-leveling) address.
	// Nil when integrity checking is off.
	shadow map[pcm.LineAddr]pcm.Line
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

// newModuleRun constructs one module of the topology from its RNG subtree
// sub: the "fill" child seeds the device background and the "mc" child seeds
// the controller's per-bank streams ("mc" → "bank-<b>"). A multi-module run
// gives module i the subtree root → "module-<i>"; the default one-module
// spec uses root itself, so its draws are those of the original single-DIMM
// simulator. reg is the run's registry (nil when collection is off).
func newModuleRun(cfg Config, pl topo.Placement, sub *rng.Rand, reg *metrics.Registry) (*moduleRun, error) {
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
	mcCfg := scheme.MCConfig(cfg.WriteQueueCap)
	mcCfg.Timing = timing
	if pl.WordLineRate > 0 {
		mcCfg.Rates.WordLine = pl.WordLineRate
	}
	if pl.BitLineRate > 0 {
		mcCfg.Rates.BitLine = pl.BitLineRate
	}
	ctrl, err := mc.New(mcCfg, dev, allocator, sub.SplitLabeled("mc"))
	if err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
	}
	ctrl.Instrument(reg)
	m := &moduleRun{pl: pl, scheme: scheme, link: uint64(pl.LinkCycles), alloc: allocator, dev: dev, ctrl: ctrl}
	if cfg.HeatmapRegions > 0 {
		m.hm = wd.NewHeatmapGeo(cfg.HeatmapRegions, dev.RowsPerBank, dev.Geometry())
		ctrl.InstrumentHeatmap(m.hm)
	}
	if cfg.CheckIntegrity {
		m.shadow = make(map[pcm.LineAddr]pcm.Line)
	}
	if cfg.WearLevelPsi > 0 {
		// Start-Gap rotates slots within one page, so it holds for any
		// module bank count.
		if m.wl, err = weargap.NewIntraRow(cfg.WearLevelPsi); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// remap applies the module's wear-leveling rotation; identity when it is
// off. The integrity shadow is keyed by the logical address so it tracks
// lines across rotations.
func (m *moduleRun) remap(a pcm.LineAddr) pcm.LineAddr {
	if m.wl == nil {
		return a
	}
	return m.wl.MapAddr(a)
}

// read performs a core's blocking demand read issued at now and returns the
// cycle the data is back at the core. The request crosses the link before
// the module sees it and the data crosses back: both legs charge the link
// latency. The core waits on the read's timing only, so the line's content
// is fetched just for the integrity shadow: a read that disagrees with it is
// an integrity violation.
func (m *moduleRun) read(now uint64, logical pcm.LineAddr) (uint64, error) {
	addr := m.remap(logical)
	done := m.ctrl.ReadTime(now+m.link, addr)
	if m.shadow != nil {
		if want, ok := m.shadow[logical]; ok && m.ctrl.LatestData(addr) != want {
			return done + m.link, fmt.Errorf("sim: integrity violation: read of line %d returned corrupted data", logical)
		}
	}
	return done + m.link, nil
}

// write posts a core's write issued at now: the pre-drawn mutation applied
// to the line's latest queued-or-stored content reaches the module after
// one link crossing. A due Start-Gap copy follows one cycle later, routed
// through the controller so it forwards from queued writes and undergoes
// VnC.
func (m *moduleRun) write(now uint64, logical pcm.LineAddr, mut workload.Mutation) {
	addr := m.remap(logical)
	data := pcm.Line(mut.Apply([8]uint64(m.ctrl.LatestData(addr))))
	m.ctrl.Write(now+m.link, addr, data)
	if m.shadow != nil {
		m.shadow[logical] = data
	}
	if m.wl != nil {
		if from, to, moved := m.wl.NoteWrite(addr); moved {
			m.ctrl.Write(now+m.link+1, to, m.ctrl.LatestData(from))
		}
	}
}

// checkShadow verifies, after the final flush, that every line the cores
// wrote to the module still holds its last written data.
func (m *moduleRun) checkShadow() error {
	for logical, want := range m.shadow {
		if got := m.ctrl.PeekData(m.remap(logical)); got != want {
			return fmt.Errorf("sim: integrity violation: module %s line %d corrupted after flush (WD escaped VnC)", m.pl.Name, logical)
		}
	}
	return nil
}

// encodeShadow writes the integrity shadow in ascending address order, so
// the checkpoint bytes do not depend on map iteration order. A run without
// integrity checking writes nothing.
func (m *moduleRun) encodeShadow(e *snap.Encoder) {
	if m.shadow == nil {
		return
	}
	addrs := make([]pcm.LineAddr, 0, len(m.shadow))
	for a := range m.shadow {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		e.U64(uint64(a))
		pcm.EncodeLine(e, m.shadow[a])
	}
}

// decodeShadow restores what encodeShadow wrote. Every shadowed line must
// lie on this module's device.
func (m *moduleRun) decodeShadow(d *snap.Decoder) error {
	if m.shadow == nil {
		return d.Err()
	}
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		a := pcm.LineAddr(d.U64())
		if d.Err() == nil && uint64(a) >= uint64(m.dev.Lines()) {
			d.Invalid("checkpoint integrity shadow holds line %d of a %d-line device", a, m.dev.Lines())
		}
		m.shadow[a] = pcm.DecodeLine(d)
	}
	return d.Err()
}

// stats returns the module's counters.
func (m *moduleRun) stats() (mc.Stats, pcm.Stats, ecp.Stats, wd.Stats) {
	return m.ctrl.Stats, m.dev.Stats(), m.ctrl.ECP().Stats, m.ctrl.WDStats()
}

// wearMoves is the module's Start-Gap copy count.
func (m *moduleRun) wearMoves() uint64 {
	if m.wl == nil {
		return 0
	}
	return m.wl.Moves
}

// simCounters is the orchestrator-side contribution to a snapshot.
type simCounters struct {
	cycles       uint64
	instructions uint64
	tlbMisses    uint64
	pageFaults   uint64
	wearMoves    uint64
}

// assembleSnapshot builds a metrics snapshot from the quiesced modules: the
// run registry supplies the histograms and the event tail, and the summed
// module stats and the orchestrator's counters supply the counters and
// gauges, every one emitted even when zero. The result is a pure function
// of the run's state.
func assembleSnapshot(reg *metrics.Registry, mods []*moduleRun, sc simCounters) *metrics.Snapshot {
	mcS, devS, ecpS, wdS := mergedStats(mods)
	s := reg.Snapshot()
	for _, rows := range [][]metrics.Field{mcS.Counters(), devS.Counters(), ecpS.Counters(), wdS.Counters()} {
		s.Counters = metrics.AppendCounters(s.Counters, rows)
	}
	s.Counters = append(s.Counters,
		metrics.CounterPoint{Name: "sim.instructions", Value: sc.instructions},
		metrics.CounterPoint{Name: "sim.tlb_misses", Value: sc.tlbMisses},
		metrics.CounterPoint{Name: "sim.page_faults", Value: sc.pageFaults},
		metrics.CounterPoint{Name: "sim.wear_moves", Value: sc.wearMoves})
	s.Gauges = append(wdS.Gauges(), metrics.GaugePoint{Name: "sim.cycles", Value: sc.cycles})
	slices.SortFunc(s.Counters, func(a, b metrics.CounterPoint) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Gauges, func(a, b metrics.GaugePoint) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// mergedStats folds every module's counters in module order.
func mergedStats(mods []*moduleRun) (mcS mc.Stats, devS pcm.Stats, ecpS ecp.Stats, wdS wd.Stats) {
	for _, m := range mods {
		a, b, c, d := m.stats()
		mcS.Add(a)
		devS.Add(b)
		ecpS.Add(c)
		wdS.Add(d)
	}
	return
}

// stackHeatmaps concatenates the per-module heatmaps bank-major in module
// order: global bank b is module m's bank b - sum(banks of modules before
// m). Nil when heatmaps are disabled.
func stackHeatmaps(mods []*moduleRun) *wd.HeatmapSnapshot {
	var out *wd.HeatmapSnapshot
	for _, m := range mods {
		s := m.hm.Snapshot()
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
