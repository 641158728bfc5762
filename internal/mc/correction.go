package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// CorrectionPolicy decides what happens to the WD errors that post-write
// verification detects on an adjacent line: correct them now (eager), park
// them in ECP entries (§4.2 LazyCorrection) or buffer them elsewhere (e.g.
// internal/imdb's in-module barrier). It is the controller's one open
// interface — external packages implement it to plug new schemes in without
// touching the controller core.
//
// Absorb gets first refusal on a detected error batch: returning
// absorbed=true claims the errors (the controller counts a lazy record and
// skips the correction write), absorbed=false sends the line down the
// standard correction path. cycles is any bank time the decision consumed
// (the built-in policies use none; a policy that evicts through
// PolicyContext.Correct reports the eviction's cost here). depth is the
// cascade recursion level of the triggering verification; pass it through
// to PolicyContext.Correct so recursion stays bounded.
//
// newBits (the set-bit indices of flips, ascending) is backed by a scratch
// buffer the controller reuses; it is valid only for the duration of the
// call — a policy that retains it past Absorb's return must copy it first.
//
// A stateful policy may additionally implement ReadOverrider, WriteObserver
// and Drainer; the controller resolves these once at construction.
type CorrectionPolicy interface {
	Absorb(ctx PolicyContext, addr pcm.LineAddr, flips pcm.Mask, newBits []int, depth int) (cycles int, absorbed bool)
}

// ReadOverrider lets a correction policy holding buffered (not yet applied)
// repairs present corrected data on reads: OverrideRead receives the
// ECP-corrected raw line and returns what the module actually delivers.
type ReadOverrider interface {
	OverrideRead(ctx PolicyContext, a pcm.LineAddr, line pcm.Line) pcm.Line
}

// WriteObserver is notified of every normal array write before it programs:
// a fresh write supersedes any errors a policy has buffered for that line
// (the same rule that releases parked ECP entries for free, §4.2).
type WriteObserver interface {
	ObserveWrite(ctx PolicyContext, a pcm.LineAddr)
}

// Drainer writes a policy's buffered repairs back at flush time (the buffer
// is volatile module state) and returns the total bank cycles consumed.
type Drainer interface {
	DrainFlush(ctx PolicyContext) int
}

// PolicyContext is the bounded view of the controller a CorrectionPolicy
// acts through: ECP parking and the standard correction path, without
// access to queue or bank scheduling state.
type PolicyContext struct {
	c *Controller
}

// PolicyContext returns the view of c its correction policy acts through,
// for driving a policy directly.
func (c *Controller) PolicyContext() PolicyContext { return PolicyContext{c} }

// RecordWD tries to park an error batch in the line's free ECP entries
// (X + Y <= N); recording happens in the WD-free low-density ECP chip and
// costs no data-bank time.
func (p PolicyContext) RecordWD(a pcm.LineAddr, bits []int) bool {
	return p.c.ecp.RecordWD(a, bits)
}

// Recorded returns the line's currently parked WD error count.
func (p PolicyContext) Recorded(a pcm.LineAddr) int { return p.c.ecp.Recorded(a) }

// Correct runs the standard correction path on a line: rewrite clearing the
// given flips plus anything ECP has pending, cascade-verify the rewrite's
// own neighbours (bounded by MaxCascadeDepth). Returns the bank cycles
// consumed. Reentrant: a policy may call it from Absorb to evict.
func (p PolicyContext) Correct(a pcm.LineAddr, flips pcm.Mask, depth int) int {
	return p.c.correctLine(a, flips, depth)
}

// MaxCascadeDepth exposes the cascade recursion bound.
func (p PolicyContext) MaxCascadeDepth() int { return p.c.cfg.MaxCascadeDepth }

// Banks returns the controller's bank count.
func (p PolicyContext) Banks() int { return len(p.c.banks) }

// Bank returns the bank holding line a under the device's geometry; per-bank
// policy state keys by it.
func (p PolicyContext) Bank(a pcm.LineAddr) int { return p.c.geo.Locate(a).Bank }

// Owns reports whether line a lies on the controller's device; a policy's
// state decoder refuses checkpointed lines that do not.
func (p PolicyContext) Owns(a pcm.LineAddr) bool { return p.c.owns(a) }

// EagerCorrection returns the basic-VnC policy: every detected error batch
// is corrected immediately.
func EagerCorrection() CorrectionPolicy { return eagerCorrection{} }

type eagerCorrection struct{}

func (eagerCorrection) Absorb(PolicyContext, pcm.LineAddr, pcm.Mask, []int, int) (int, bool) {
	return 0, false
}

// LazyECP returns the §4.2 LazyCorrection policy: park the errors if the
// line's free ECP entries cover them, correct otherwise.
func LazyECP() CorrectionPolicy { return lazyECP{} }

type lazyECP struct{}

func (lazyECP) Absorb(ctx PolicyContext, addr pcm.LineAddr, flips pcm.Mask, newBits []int, depth int) (int, bool) {
	return 0, ctx.RecordWD(addr, newBits)
}

// scratchBits renders flips into the controller's per-depth scratch buffer
// and returns the set-bit indices, ascending. One buffer per cascade depth
// keeps the slices disjoint across the recursion verifyNeighbour → Absorb →
// PolicyContext.Correct → verifyNeighbour(depth+1): depth strictly increases
// down that call chain, so at most one frame per depth is ever live. The
// returned slice is valid until the next verification at the same depth
// (the CorrectionPolicy contract).
func (c *Controller) scratchBits(depth int, flips pcm.Mask) []int {
	for len(c.bitScratch) <= depth {
		c.bitScratch = append(c.bitScratch, make([]int, 0, pcm.LineBits))
	}
	out := flips.AppendBits(c.bitScratch[depth][:0])
	c.bitScratch[depth] = out
	return out
}

// verifyNeighbour performs the post-write read of one adjacent line and
// resolves any disturbance found there through the correction policy.
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
	d, absorbed := c.cfg.Correction.Absorb(PolicyContext{c}, addr, flips, newBits, depth)
	cycles += d
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
