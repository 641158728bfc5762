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

// moduleRun bundles one module's live machinery: its own buddy allocator
// (strip width = the module's bank count), bank plane (which owns the
// module's device) and, with Config.WearLevelPsi, its own intra-row
// Start-Gap layer. Addresses handed to a module are module-local — the address-range router assigns each core
// to one module and its address space allocates module-local frames, so no
// global translation exists on the hot path.
type moduleRun struct {
	pl     topo.Placement
	scheme core.Scheme
	link   uint64
	alloc  *alloc.Allocator
	p      *bankPlane
	wl     *weargap.IntraRow // nil unless wear leveling is on
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
// the per-bank streams. A multi-module run gives module i the subtree
// root → "module-<i>"; the default one-module spec uses root itself, so its
// draws are those of the original single-DIMM simulator.
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
	bankRngs := sub.SplitLabeled("mc").SplitLabeledSeq("bank", pl.Banks)

	m := &moduleRun{pl: pl, scheme: scheme, link: uint64(pl.LinkCycles), alloc: allocator}
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
	m.p, err = newBankPlane(cfg, dev, mcCfg, allocator, bankRngs, reg)
	if err != nil {
		return nil, fmt.Errorf("sim: module %s: %w", pl.Name, err)
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
// latency.
func (m *moduleRun) read(now uint64, logical pcm.LineAddr) (uint64, error) {
	done, err := m.p.read(now+m.link, m.remap(logical), logical)
	return done + m.link, err
}

// write posts a core's write issued at now; it reaches the module after one
// link crossing. A due Start-Gap copy follows one cycle later, routed
// through the controller so it forwards from queued writes and undergoes
// VnC.
func (m *moduleRun) write(now uint64, logical pcm.LineAddr, mut workload.Mutation) {
	addr := m.remap(logical)
	m.p.write(now+m.link, addr, logical, mut)
	if m.wl != nil {
		if from, to, moved := m.wl.NoteWrite(addr); moved {
			m.p.copyLine(now+m.link+1, from, to)
		}
	}
}

// checkShadow verifies, after the final flush, that every line the cores
// wrote to the module still holds its last written data.
func (m *moduleRun) checkShadow() error {
	for logical, want := range m.p.shadow {
		addr := m.remap(logical)
		if got := m.p.ctrlFor(addr).PeekData(addr); got != want {
			return fmt.Errorf("sim: integrity violation: module %s line %d corrupted after flush (WD escaped VnC)", m.pl.Name, logical)
		}
	}
	return nil
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

// assembleSnapshot builds a metrics snapshot from the quiesced modules:
// module stats are summed and rendered into a scratch registry and merged
// with the run registry's histograms; the run registry's event tail is the
// snapshot's. The result is a pure function of the run's state.
func assembleSnapshot(reg *metrics.Registry, mods []*moduleRun, sc simCounters) *metrics.Snapshot {
	tmp := metrics.New()
	mcS, devS, ecpS, wdS := mergedStats(mods)
	mcS.Publish(tmp)
	devS.Publish(tmp)
	ecpS.Publish(tmp)
	wdS.Publish(tmp)
	tmp.Counter("sim.instructions").Add(sc.instructions)
	tmp.Counter("sim.tlb_misses").Add(sc.tlbMisses)
	tmp.Counter("sim.page_faults").Add(sc.pageFaults)
	tmp.Counter("sim.wear_moves").Add(sc.wearMoves)
	tmp.Gauge("sim.cycles").Set(sc.cycles)
	rs := reg.Snapshot()
	s := tmp.Snapshot().Merge(rs)
	s.Events, s.EventsDropped = rs.Events, rs.EventsDropped
	return s
}

// mergedStats folds every module's counters in module order.
func mergedStats(mods []*moduleRun) (mcS mc.Stats, devS pcm.Stats, ecpS ecp.Stats, wdS wd.Stats) {
	for _, m := range mods {
		a, b, c, d := m.p.mergedStats()
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
