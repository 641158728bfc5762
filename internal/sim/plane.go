package sim

import (
	"fmt"
	"slices"

	"sdpcm/internal/alloc"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// bankPlane is the per-bank decomposition of a run's memory-system state:
// one mc.Controller per PCM bank, each with its own ECP table, policy
// instances, disturbance engine (on a labeled per-bank RNG stream) and — when
// collection is on — its own metrics registry and event ring. The device and
// heatmap are shared, but their mutable state is split per bank internally
// (per-bank stat counters and storage arenas; bank-major heatmap cells), so
// controllers driving disjoint banks never write the same memory.
//
// The decomposition is exact, not approximate: banks are serially-busy
// independent resources and write disturbance only couples physically
// adjacent rows within one bank (rows r±1 of the same bank), so per-bank
// state machines fed the same per-bank op sequences produce identical state
// whatever the interleaving of ops across banks. Aggregate results are
// folded in fixed bank order 0..Banks-1. One plane covers one module; a
// multi-module topology builds one plane per module over that module's
// device geometry. The run loop applies every op at issue time on its own
// goroutine.
type bankPlane struct {
	dev   *pcm.Device
	geo   pcm.Geometry
	ctrls []*mc.Controller
	regs  []*metrics.Registry // nil entries when collection is off
	hm    *wd.Heatmap         // nil when disabled; shared, bank-disjoint cells
	// shadow is the integrity shadow (Config.CheckIntegrity): the last data
	// written to each line, keyed by logical (pre-wear-leveling) address.
	// Nil when integrity checking is off.
	shadow map[pcm.LineAddr]pcm.Line
}

// newBankPlane builds the per-bank controllers over the device's bank
// geometry. mcCfg produces a fresh controller configuration per bank (policy
// values are stateful and must not be shared); bankRngs must hold one labeled
// stream per bank (module root "mc" → "bank-<b>"); a is the module's live
// allocator, every controller's RegionResolver.
func newBankPlane(cfg Config, dev *pcm.Device, mcCfg func() mc.Config, a *alloc.Allocator, bankRngs []*rng.Rand) (*bankPlane, error) {
	p := &bankPlane{
		dev:   dev,
		geo:   dev.Geometry(),
		ctrls: make([]*mc.Controller, dev.Banks()),
		regs:  make([]*metrics.Registry, dev.Banks()),
	}
	if cfg.HeatmapRegions > 0 {
		p.hm = wd.NewHeatmapGeo(cfg.HeatmapRegions, dev.RowsPerBank, dev.Geometry())
	}
	if cfg.CheckIntegrity {
		p.shadow = make(map[pcm.LineAddr]pcm.Line)
	}
	collect := cfg.CollectMetrics || cfg.TraceEvents > 0 || cfg.SnapshotInterval > 0
	for b := range p.ctrls {
		ctrl, err := mc.New(mcCfg(), dev, a, bankRngs[b])
		if err != nil {
			return nil, err
		}
		ctrl.BindBank(b)
		if collect {
			reg := metrics.New()
			reg.EnableTrace(cfg.TraceEvents)
			ctrl.Instrument(reg)
			p.regs[b] = reg
		}
		if p.hm != nil {
			ctrl.InstrumentHeatmap(p.hm)
		}
		p.ctrls[b] = ctrl
	}
	return p, nil
}

// ctrlFor returns the controller owning a line address.
func (p *bankPlane) ctrlFor(a pcm.LineAddr) *mc.Controller { return p.ctrls[p.geo.Locate(a).Bank] }

// read performs a blocking demand read and returns its completion time.
// logical keys the integrity shadow; a mismatch is an integrity violation.
func (p *bankPlane) read(now uint64, addr, logical pcm.LineAddr) (uint64, error) {
	done, data := p.ctrlFor(addr).Read(now, addr)
	if p.shadow != nil {
		if want, ok := p.shadow[logical]; ok && data != want {
			return done, fmt.Errorf("sim: integrity violation: read of line %d returned corrupted data", logical)
		}
	}
	return done, nil
}

// write posts a write of the pre-drawn mutation applied to the line's
// latest queued-or-stored content.
func (p *bankPlane) write(now uint64, addr, logical pcm.LineAddr, m workload.Mutation) {
	ctrl := p.ctrlFor(addr)
	data := pcm.Line(m.Apply([8]uint64(ctrl.LatestData(addr))))
	ctrl.Write(now, addr, data)
	if p.shadow != nil {
		p.shadow[logical] = data
	}
}

// copyLine posts a Start-Gap line copy. Start-Gap rotates slots within a
// row, so from and to share a bank.
func (p *bankPlane) copyLine(now uint64, from, to pcm.LineAddr) {
	ctrl := p.ctrlFor(to)
	ctrl.Write(now, to, ctrl.LatestData(from))
}

// encodeShadow writes the integrity shadow in ascending address order, so
// the checkpoint bytes do not depend on map iteration order.
func (p *bankPlane) encodeShadow(e *snap.Encoder) {
	e.Bool(p.shadow != nil)
	if p.shadow == nil {
		return
	}
	addrs := make([]pcm.LineAddr, 0, len(p.shadow))
	for a := range p.shadow {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		e.U64(uint64(a))
		pcm.EncodeLine(e, p.shadow[a])
	}
}

// decodeShadow restores what encodeShadow wrote. The checkpoint must agree
// with this run on whether integrity checking is on, and every shadowed
// line must lie on this module's device.
func (p *bankPlane) decodeShadow(d *snap.Decoder) error {
	has := d.Bool()
	if d.Err() == nil && has != (p.shadow != nil) {
		return fmt.Errorf("checkpoint integrity-shadow presence %t does not match this run's %t", has, p.shadow != nil)
	}
	if has {
		n := d.Count()
		for i := 0; i < n && d.Err() == nil; i++ {
			a := pcm.LineAddr(d.U64())
			if d.Err() == nil && uint64(a) >= uint64(p.dev.Lines()) {
				d.Invalid("checkpoint integrity shadow holds line %d of a %d-line device", a, p.dev.Lines())
			}
			p.shadow[a] = pcm.DecodeLine(d)
		}
	}
	return d.Err()
}

// collecting reports whether metric registries are attached.
func (p *bankPlane) collecting() bool { return p.regs[0] != nil }

// mergedStats folds the per-bank module counters in bank order.
func (p *bankPlane) mergedStats() (mcS mc.Stats, devS pcm.Stats, ecpS ecp.Stats, wdS wd.Stats) {
	for b := range p.ctrls {
		mcS.Add(p.ctrls[b].Stats)
		ecpS.Add(p.ctrls[b].ECP().Stats)
		wdS.Add(p.ctrls[b].Engine().Stats)
	}
	devS = p.dev.Stats()
	return
}

// flushAll drains every controller completely and returns the cycle all work
// finishes, combining per-bank controllers exactly as one controller would:
// queue work ends at the max over banks, and the policies' volatile drain
// buffers are conservatively serialised after it (summed, as the single
// controller's DrainFlush summed its banks).
func (p *bankPlane) flushAll(now uint64) uint64 {
	var end, drain uint64
	end = now
	for b := range p.ctrls {
		e, d := p.ctrls[b].FlushParts(now)
		end = max(end, e)
		drain += d
	}
	return end + drain
}
