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

// OnWrite injects the disturbance of writing line a: old and new are the
// stored images before/after, reset and set the differential pulse maps.
// The device must already hold the new image; bit-line flips are applied to
// it in place.
//
// Every trial is one rng.Chance draw per vulnerable cell, taken in ascending
// bit order within each mask (rng.Rand.SampleBits): the draw order is part
// of the repository's determinism contract, which the golden tables and
// equivalence fingerprints pin. The masks are worked word by word, one word
// per chip segment (din.SegmentBits is 64), without building bit lists.
func (e *Engine) OnWrite(dev *pcm.Device, a pcm.LineAddr, old, new pcm.Line, reset, set pcm.Mask) Outcome {
	e.Stats.WritesObserved++
	out := Outcome{FinalReset: reset}

	// --- 1. In-line word-line WD with verify-and-rewrite loop. ---
	// A victim is an idle amorphous cell beside this round's aggressor
	// pulses (din.Vulnerable): it stores 0 before and after the write and
	// has not been pulsed. busy holds every cell that is not such a victim
	// candidate; agg turns into each round's victims, then its flips, in
	// place.
	wl := rng.NewChance(e.Rates.WordLine)
	var busy pcm.Mask
	for w := range busy {
		busy[w] = old[w] | new[w] | reset[w] | set[w]
	}
	agg := reset
	for {
		var any uint64
		for w, g := range agg {
			agg[w] = (g<<1 | g>>1) &^ busy[w]
			any |= agg[w]
		}
		if any == 0 {
			break
		}
		n := e.rnd.SampleBits(agg[:], agg[:], wl)
		if n == 0 {
			break
		}
		out.WordLineErrors += n
		out.RewritePulses += n
		e.Stats.InLineErrors += uint64(n)
		e.Stats.RewritePulses += uint64(n)
		for w, f := range agg {
			busy[w] |= f
			out.FinalReset[w] |= f
		}
	}

	// --- 2. Cross-line word-line WD at chip-segment edges. ---
	if e.Rates.WordLine > 0 {
		slot := a.Slot()
		if slot > 0 {
			// A segment's first cell threatens the previous slot's last.
			out.WordLineErrors += e.edgeFlips(dev, a-1, &out.FinalReset, 0, din.SegmentBits-1, wl)
		}
		if slot < pcm.LinesPerPage-1 {
			out.WordLineErrors += e.edgeFlips(dev, a+1, &out.FinalReset, din.SegmentBits-1, 0, wl)
		}
	}

	// --- 3. Bit-line WD on vertically adjacent lines. ---
	if e.Rates.BitLine > 0 {
		bl := rng.NewChance(e.Rates.BitLine)
		above, below, okA, okB := dev.Geometry().AdjacentLines(a, dev.RowsPerBank)
		if okA {
			out.AboveCount = e.bitLineFlips(dev, above, &out.FinalReset, &out.Above, bl)
		}
		if okB {
			out.BelowCount = e.bitLineFlips(dev, below, &out.FinalReset, &out.Below, bl)
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
// each chip segment whose cell at aggBit fires RESET, the victim is the
// neighbour line's cell at victimBit of that segment; it flips if
// amorphous. Only the tested word of the neighbour is read. Flips are
// healed in place (net array change: none) and counted.
func (e *Engine) edgeFlips(dev *pcm.Device, neighbour pcm.LineAddr, finalReset *pcm.Mask, aggBit, victimBit uint, c rng.Chance) int {
	n := 0
	for seg, r := range finalReset {
		if r>>aggBit&1 == 0 {
			continue
		}
		if dev.PeekWord(neighbour, seg)>>victimBit&1 == 0 && e.rnd.Hit(c) {
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
// The flips are stored in flips and persist in the array until VnC corrects
// them.
func (e *Engine) bitLineFlips(dev *pcm.Device, neighbour pcm.LineAddr, aggressors, flips *pcm.Mask, c rng.Chance) int {
	content := dev.Peek(neighbour)
	for w := range flips {
		flips[w] = aggressors[w] &^ content[w]
	}
	n := e.rnd.SampleBits(flips[:], flips[:], c)
	if n > 0 {
		dev.DisturbPeeked(neighbour, content, *flips)
		e.Stats.BitLineFlips += uint64(n)
		e.hm.RecordInjected(neighbour, n)
		if e.tr != nil {
			e.tr.Emit(e.Now, metrics.EvWDInjected, uint64(neighbour), uint64(n), 0)
		}
	}
	return n
}
