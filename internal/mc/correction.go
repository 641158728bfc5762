package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// Correction selects what happens to the WD errors that post-write
// verification detects on an adjacent line. A new correction mechanism is
// a controller change: a value here and its branch in verifyNeighbour.
type Correction uint8

const (
	// Eager corrects every detected error batch at once (basic VnC).
	Eager Correction = iota
	// LazyECP parks a batch in the line's free ECP entries when they cover
	// it and corrects otherwise (§4.2 LazyCorrection).
	LazyECP
	// Barrier buffers repairs in the in-module disturbance barrier
	// (barrier.go).
	Barrier
)

// scratchBits renders flips into the controller's per-depth scratch buffer
// and returns the set-bit indices, ascending. One buffer per cascade depth
// keeps the slices disjoint across the recursion verifyNeighbour →
// correctLine → verifyNeighbour(depth+1): depth strictly increases down
// that call chain, so at most one frame per depth is ever live. The
// returned slice is valid until the next verification at the same depth.
func (c *Controller) scratchBits(depth int, flips pcm.Mask) []int {
	for len(c.bitScratch) <= depth {
		c.bitScratch = append(c.bitScratch, make([]int, 0, pcm.LineBits))
	}
	out := flips.AppendBits(c.bitScratch[depth][:0])
	c.bitScratch[depth] = out
	return out
}

// verifyNeighbour performs the post-write read of one adjacent line and
// resolves any disturbance found there as Config.Correction selects.
// depth tracks cascade recursion (0 = first-level verification of the
// original write).
func (c *Controller) verifyNeighbour(addr pcm.LineAddr, flips pcm.Mask, depth int) int {
	cycles := 0
	// Post-write read.
	c.dev.CountRead()
	if depth == 0 {
		c.Stats.VerifyReads++
		if !c.cfg.NoVerifyCharge {
			cycles += c.cfg.Timing.ReadCycles
			c.Stats.VerifyCycles += uint64(c.cfg.Timing.ReadCycles)
		}
	} else {
		c.Stats.CascadeReads++
		if !c.cfg.NoCorrectCharge {
			cycles += c.cfg.Timing.ReadCycles
			c.Stats.CorrectCycles += uint64(c.cfg.Timing.ReadCycles)
		}
	}
	if !flips.Any() {
		return cycles
	}
	newBits := c.scratchBits(depth, flips)
	if c.tr != nil {
		c.tr.Emit(c.engineFor(addr).Now, metrics.EvWDDetected, uint64(addr), uint64(len(newBits)), uint64(depth))
	}
	var absorbed bool
	switch c.cfg.Correction {
	case LazyECP:
		// Recording happens in the WD-free low-density ECP chip and costs
		// no data-bank time.
		absorbed = c.ecp.RecordWD(addr, newBits)
	case Barrier:
		var d int
		d, absorbed = c.barrier.absorb(c, addr, flips, depth)
		cycles += d
	}
	if absorbed {
		c.Stats.LazyRecords++
		c.hm.RecordParked(addr, len(newBits))
		if c.tr != nil {
			c.tr.Emit(c.engineFor(addr).Now, metrics.EvWDParked, uint64(addr), uint64(len(newBits)), uint64(c.ecp.Recorded(addr)))
		}
		return cycles
	}
	// Correction write: RESET every pending disturbed cell (newly found and
	// previously parked); hard errors stay in their entries.
	cycles += c.correctLine(addr, flips, depth)
	return cycles
}

// correctLine rewrites a disturbed line to clear its WD errors and runs
// cascading verification on the correction's own neighbours. The rewrite
// disturbs through, and stamps events with, the engine of the line's bank.
func (c *Controller) correctLine(addr pcm.LineAddr, newFlips pcm.Mask, depth int) int {
	cycles := 0
	eng := c.engineFor(addr)
	pending := c.ecp.CorrectionMask(addr).Or(newFlips)
	raw := c.dev.Peek(addr)
	var corrected pcm.Line
	for i := range raw {
		corrected[i] = raw[i] &^ pending[i]
	}
	res := c.dev.Write(addr, corrected, pcm.CorrectionWrite)
	c.ecp.ClearWD(addr, true)
	c.Stats.CorrectionWrites++
	c.cascadeDepth.Observe(uint64(depth))
	c.hm.RecordCorrection(addr, pending.PopCount(), depth)
	if c.tr != nil {
		c.tr.Emit(eng.Now, metrics.EvWDFlushed, uint64(addr), uint64(pending.PopCount()), uint64(depth))
	}
	if !c.cfg.NoCorrectCharge {
		cycles += res.Cycles
		c.Stats.CorrectCycles += uint64(res.Cycles)
	}
	// The correction write is a write: its RESET pulses disturb. Note the
	// corrected line's content is already (conceptually) known from the
	// verification read, so no fresh pre-reads are needed here — cascading
	// verification is post-reads only (§6.8).
	out := eng.OnWrite(c.dev, addr, raw, corrected, res.Reset, res.Set)
	if out.RewritePulses > 0 && !c.cfg.NoCorrectCharge {
		d := c.cfg.Timing.WriteCycles(out.RewritePulses, 0)
		cycles += d
		c.Stats.CorrectCycles += uint64(d)
	}
	if depth >= c.cfg.MaxCascadeDepth {
		c.Stats.CascadeTruncated++
		return cycles
	}
	above, below, okA, okB := c.geo.AdjacentLines(addr, c.dev.RowsPerBank)
	vt, vb := c.verifySides(addr.Page())
	if (okA && vt || okB && vb) && c.tr != nil {
		c.tr.Emit(eng.Now, metrics.EvCascadeStep, uint64(addr), uint64(depth+1), 0)
	}
	if okA && vt {
		cycles += c.verifyNeighbour(above, out.Above, depth+1)
	}
	if okB && vb {
		cycles += c.verifyNeighbour(below, out.Below, depth+1)
	}
	return cycles
}
