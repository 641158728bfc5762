// Package wd is the write-disturbance engine: it converts the RESET pulse
// map of each line write into manifested bit errors, following the
// vulnerability rules of §2.2.1:
//
//   - only RESET pulses disturb (SET heat is 4x lower and ignorable);
//   - only *idle* cells can be disturbed (a cell programmed by this write is
//     re-annealed by its own pulse);
//   - only amorphous ('0') cells are vulnerable — a disturbed cell partially
//     crystallises and its stored 0 reads as 1.
//
// Three disturbance surfaces are modelled per write:
//
//  1. In-line word-line WD. Victims inside the written line are caught by
//     the write circuit's program-and-verify loop (the DIN "checks and
//     rewrites"): each flip is rewritten with a fresh RESET pulse, which can
//     itself disturb, so the loop iterates until quiescent. These errors
//     never escape the write operation; they cost rewrite pulses (wear) and
//     are the word-line errors Figure 4(a) counts.
//  2. Cross-line word-line WD. A RESET on the first/last cell of a chip
//     segment can disturb the edge cell of the horizontally adjacent line in
//     the same row. The row-internal verify heals them in place (counted,
//     plus one heal pulse of wear; no timing event — identical across all
//     compared schemes).
//  3. Bit-line WD. Every RESET pulse threatens the same cell position of the
//     two vertically adjacent lines (same bank, rows r±1 — pages ±16). These
//     flips are applied to the array and are NOT healed here: detecting and
//     correcting them is exactly the VnC / LazyCorrection machinery of the
//     memory controller (§3.2, §4.2). Figure 4(b) counts them.
package wd

import (
	"sdpcm/internal/din"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/thermal"
)

// Stats aggregates engine activity.
type Stats struct {
	WritesObserved uint64
	// InLineErrors are manifested word-line flips inside the written line.
	InLineErrors uint64
	// EdgeErrors are manifested word-line flips in horizontally adjacent
	// lines of the same row.
	EdgeErrors uint64
	// RewritePulses are RESET pulses spent re-annealing in-line flips.
	RewritePulses uint64
	// EdgeHealPulses are RESET pulses spent healing edge flips.
	EdgeHealPulses uint64
	// BitLineFlips are persistent disturbance errors applied to vertically
	// adjacent lines (the errors VnC must find).
	BitLineFlips uint64
	// MaxWordLinePerWrite and MaxBitLinePerLine track the worst single
	// write observed (the "max" bars of Figure 4).
	MaxWordLinePerWrite int
	MaxBitLinePerLine   int
}

// Counters lists the engine counters as metric rows, in field order (which
// is also their checkpoint order). The two worst-case fields are not rows:
// they merge by max and publish as gauges.
func (s *Stats) Counters() []metrics.Field {
	return []metrics.Field{
		{Name: "wd.writes_observed", V: &s.WritesObserved},
		{Name: "wd.inline_errors", V: &s.InLineErrors},
		{Name: "wd.edge_errors", V: &s.EdgeErrors},
		{Name: "wd.rewrite_pulses", V: &s.RewritePulses},
		{Name: "wd.edge_heal_pulses", V: &s.EdgeHealPulses},
		{Name: "wd.bitline_flips", V: &s.BitLineFlips},
	}
}

// Gauges renders the worst-case fields as snapshot gauges.
func (s *Stats) Gauges() []metrics.GaugePoint {
	return []metrics.GaugePoint{
		{Name: "wd.max_wordline_per_write", Value: uint64(s.MaxWordLinePerWrite)},
		{Name: "wd.max_bitline_per_line", Value: uint64(s.MaxBitLinePerLine)},
	}
}

// Add accumulates another Stats value: counters sum, worst-case fields take
// the max. Order-independent, so a controller's per-bank engines merge
// commutatively.
func (s *Stats) Add(o Stats) {
	metrics.AddFields(s.Counters(), o.Counters())
	s.MaxWordLinePerWrite = max(s.MaxWordLinePerWrite, o.MaxWordLinePerWrite)
	s.MaxBitLinePerLine = max(s.MaxBitLinePerLine, o.MaxBitLinePerLine)
}

// Engine injects disturbance for one DIMM. Not safe for concurrent use.
type Engine struct {
	Rates thermal.Rates
	Stats Stats

	// Now is the simulated cycle trace events are stamped with; the memory
	// controller sets it to the write op's start time before OnWrite.
	Now uint64

	rnd *rng.Rand
	tr  *metrics.Trace
	hm  *Heatmap
}

// New builds an engine with the given per-axis disturbance probabilities.
func New(rates thermal.Rates, rnd *rng.Rand) *Engine {
	return &Engine{Rates: rates, rnd: rnd}
}

// Instrument attaches an event trace; injected bit-line errors are emitted
// as EvWDInjected events. A nil trace leaves the engine silent.
func (e *Engine) Instrument(tr *metrics.Trace) { e.tr = tr }

// InstrumentHeatmap attaches a spatial heatmap; injected bit-line flips are
// accumulated per bank × line-region. A nil heatmap leaves the engine
// unchanged (the disabled form records nothing).
func (e *Engine) InstrumentHeatmap(h *Heatmap) { e.hm = h }

// Outcome reports the disturbance consequences of one line write.
type Outcome struct {
	// WordLineErrors is the number of manifested word-line errors
	// (in-line + edge), the Figure 4(a) quantity.
	WordLineErrors int
	// RewritePulses is the extra RESET pulse count spent fixing them.
	RewritePulses int
	// FinalReset is the effective aggressor map after rewrites — the pulse
	// map whose edges threaten neighbours.
	FinalReset pcm.Mask
	// Above / Below are the persistent flips applied to the bit-line
	// neighbours (zero masks when the neighbour does not exist or no flips
	// occurred). The Figure 4(b) quantity is AboveCount+BelowCount.
	Above, Below           pcm.Mask
	AboveCount, BelowCount int
}

// sample returns the subset of mask whose bits each flip with probability p.
// The visit order (ascending bit index) fixes the RNG consumption order and
// is part of the repository's determinism contract: golden tables and
// equivalence fingerprints depend on it. The allocation-free visitor keeps
// this — the hottest per-write loop — off the heap entirely.
func (e *Engine) sample(mask pcm.Mask, p float64) pcm.Mask {
	var out pcm.Mask
	if p <= 0 || !mask.Any() {
		return out
	}
	mask.VisitBits(func(b int) bool {
		if e.rnd.Bernoulli(p) {
			out.SetBit(b)
		}
		return true
	})
	return out
}

// OnWrite injects the disturbance of writing line a: old and new are the
// stored images before/after, reset and set the differential pulse maps.
// The device must already hold the new image; bit-line flips are applied to
// it in place.
func (e *Engine) OnWrite(dev *pcm.Device, a pcm.LineAddr, old, new pcm.Line, reset, set pcm.Mask) Outcome {
	e.Stats.WritesObserved++
	out := Outcome{}

	// --- 1. In-line word-line WD with verify-and-rewrite loop. ---
	pulsed := reset.Or(set) // cells programmed so far (not idle)
	agg := reset            // this round's disturbing pulses
	finalReset := reset
	for agg.Any() {
		vuln := din.Vulnerable(agg, old, new).AndNot(pulsed)
		flips := e.sample(vuln, e.Rates.WordLine)
		if !flips.Any() {
			break
		}
		n := flips.PopCount()
		out.WordLineErrors += n
		out.RewritePulses += n
		e.Stats.InLineErrors += uint64(n)
		e.Stats.RewritePulses += uint64(n)
		pulsed = pulsed.Or(flips)
		finalReset = finalReset.Or(flips)
		agg = flips
	}
	out.FinalReset = finalReset

	// --- 2. Cross-line word-line WD at chip-segment edges. ---
	if e.Rates.WordLine > 0 {
		edges := din.Edges(finalReset)
		slot := a.Slot()
		if slot > 0 {
			n := e.edgeFlips(dev, a-1, edges.LeftAggressor, din.SegmentBits-1)
			out.WordLineErrors += n
		}
		if slot < pcm.LinesPerPage-1 {
			n := e.edgeFlips(dev, a+1, edges.RightAggressor, 0)
			out.WordLineErrors += n
		}
	}

	// --- 3. Bit-line WD on vertically adjacent lines. ---
	if e.Rates.BitLine > 0 {
		above, below, okA, okB := dev.Geometry().AdjacentLines(a, dev.RowsPerBank)
		if okA {
			out.Above, out.AboveCount = e.bitLineFlips(dev, above, finalReset)
		}
		if okB {
			out.Below, out.BelowCount = e.bitLineFlips(dev, below, finalReset)
		}
	}
	if out.WordLineErrors > e.Stats.MaxWordLinePerWrite {
		e.Stats.MaxWordLinePerWrite = out.WordLineErrors
	}
	if out.AboveCount > e.Stats.MaxBitLinePerLine {
		e.Stats.MaxBitLinePerLine = out.AboveCount
	}
	if out.BelowCount > e.Stats.MaxBitLinePerLine {
		e.Stats.MaxBitLinePerLine = out.BelowCount
	}
	return out
}

// edgeFlips disturbs the edge cells of a horizontally adjacent line. For
// each chip segment with an aggressor, the victim is the neighbour line's
// cell at offsetInSeg of that segment; it flips if amorphous. Flips are
// healed in place (net array change: none) and counted.
func (e *Engine) edgeFlips(dev *pcm.Device, neighbour pcm.LineAddr, aggressor [pcm.LineBits / din.SegmentBits]bool, offsetInSeg int) int {
	content := dev.Peek(neighbour)
	n := 0
	for seg, agg := range aggressor {
		if !agg {
			continue
		}
		bit := seg*din.SegmentBits + offsetInSeg
		if content.Bit(bit) == 0 && e.rnd.Bernoulli(e.Rates.WordLine) {
			n++
		}
	}
	if n > 0 {
		e.Stats.EdgeErrors += uint64(n)
		e.Stats.EdgeHealPulses += uint64(n)
	}
	return n
}

// bitLineFlips disturbs a vertically adjacent line: every aggressor RESET
// position whose counterpart cell is amorphous flips with the bit-line rate.
// The flips persist in the array until VnC corrects them.
func (e *Engine) bitLineFlips(dev *pcm.Device, neighbour pcm.LineAddr, aggressors pcm.Mask) (pcm.Mask, int) {
	content := dev.Peek(neighbour)
	var vulnerable pcm.Mask
	for i := range aggressors {
		vulnerable[i] = aggressors[i] & ^content[i]
	}
	flips := e.sample(vulnerable, e.Rates.BitLine)
	n := flips.PopCount()
	if n > 0 {
		dev.Disturb(neighbour, flips)
		e.Stats.BitLineFlips += uint64(n)
		e.hm.RecordInjected(neighbour, n)
		if e.tr != nil {
			e.tr.Emit(e.Now, metrics.EvWDInjected, uint64(neighbour), uint64(n), 0)
		}
	}
	return flips, n
}
