// Package imdb implements an in-module disturbance barrier: a small
// per-bank victim buffer inside the memory module that absorbs the
// disturbed-neighbour rewrites VnC would otherwise issue on the critical
// path. Where LazyCorrection (§4.2) parks errors per line in ECP entries,
// the barrier pools a few repair records per bank and writes them back
// only on eviction or flush. One barrier serves the module's one
// controller, with a buffer per bank of that controller's geometry
// (mc.PolicyContext.Bank), whatever the module's bank count.
//
// The package is the worked example of the pluggable write-path policy
// architecture: it implements mc.CorrectionPolicy (plus the optional
// ReadOverrider, WriteObserver and Drainer extensions) and registers a
// scheme with internal/core — no controller-core file knows it exists.
package imdb

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/geometry"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
)

// DefaultBufferPerBank is the barrier's per-bank victim-buffer capacity.
// Eight records per bank is SRAM on the module's buffer chip, far below
// the per-line ECP provisioning it replaces.
const DefaultBufferPerBank = 8

// entry is one buffered repair: the disturbed line and the accumulated
// mask of spuriously SET cells awaiting a clearing rewrite.
type entry struct {
	addr pcm.LineAddr
	mask pcm.Mask
}

// Barrier is the buffering correction policy. It is controller state: build
// a fresh Barrier per controller (the Scheme's Policy hook does) and never
// share one across concurrent runs.
type Barrier struct {
	// banks holds one victim buffer per controller bank, keyed by the
	// controller's geometry (mc.PolicyContext.Bank); sized on first use.
	banks [][]entry
	cap   int
	// bypass disables absorption while the barrier itself corrects
	// (evictions and the flush drain): the cascades those rewrites trigger
	// resolve eagerly, so recursion stays depth-bounded and the buffer only
	// ever shrinks while draining.
	bypass bool

	// Evictions and Coalesced are observability counters (the controller's
	// Stats only see absorbed batches as LazyRecords).
	Evictions uint64
	Coalesced uint64
}

// New returns an empty barrier with the given per-bank capacity
// (<= 0 selects DefaultBufferPerBank).
func New(bufPerBank int) *Barrier {
	if bufPerBank <= 0 {
		bufPerBank = DefaultBufferPerBank
	}
	return &Barrier{cap: bufPerBank}
}

// Buffered returns the total number of repair records currently held.
func (w *Barrier) Buffered() int {
	n := 0
	for i := range w.banks {
		n += len(w.banks[i])
	}
	return n
}

// buffer returns the victim buffer of line a's bank.
func (w *Barrier) buffer(ctx mc.PolicyContext, a pcm.LineAddr) *[]entry {
	if w.banks == nil {
		w.banks = make([][]entry, ctx.Banks())
	}
	return &w.banks[ctx.Bank(a)]
}

// Absorb claims a detected error batch into the bank's victim buffer.
// Repairs for a line already buffered coalesce by OR-ing masks — WD flips
// are spurious SETs and the eventual correction clears the union, so
// accumulation is order-independent (the same property ECP parking relies
// on). A full buffer evicts its oldest record through the standard
// correction path and reports that rewrite's cycles.
func (w *Barrier) Absorb(ctx mc.PolicyContext, addr pcm.LineAddr, flips pcm.Mask, newBits []int, depth int) (int, bool) {
	if w.bypass {
		return 0, false
	}
	bk := w.buffer(ctx, addr)
	for i := range *bk {
		if (*bk)[i].addr == addr {
			(*bk)[i].mask = (*bk)[i].mask.Or(flips)
			w.Coalesced++
			return 0, true
		}
	}
	cycles := 0
	if len(*bk) >= w.cap {
		victim := (*bk)[0]
		*bk = append((*bk)[:0], (*bk)[1:]...)
		cycles = w.correct(ctx, victim, depth)
		w.Evictions++
	}
	*bk = append(*bk, entry{addr: addr, mask: flips})
	return cycles, true
}

// correct writes one buffered repair back under bypass, so the rewrite's
// own cascade resolves eagerly instead of re-entering the buffer.
func (w *Barrier) correct(ctx mc.PolicyContext, e entry, depth int) int {
	w.bypass = true
	defer func() { w.bypass = false }()
	return ctx.Correct(e.addr, e.mask, depth)
}

// OverrideRead masks buffered (not yet applied) repairs out of read data:
// the module knows which cells of the line are spuriously SET and clears
// them on the way out, exactly as a pending correction would. It only looks
// up: a read before the barrier's first write allocates no buffers, so the
// checkpointed buffer count depends on writes alone.
func (w *Barrier) OverrideRead(ctx mc.PolicyContext, a pcm.LineAddr, line pcm.Line) pcm.Line {
	if w.banks == nil {
		return line
	}
	bk := w.banks[ctx.Bank(a)]
	for i := range bk {
		if bk[i].addr == a {
			for j := range line {
				line[j] &^= bk[i].mask[j]
			}
			return line
		}
	}
	return line
}

// ObserveWrite drops the buffered repair for a line about to be
// reprogrammed: the fresh write supersedes the stale mask (the rule that
// releases parked ECP entries for free, §4.2).
func (w *Barrier) ObserveWrite(ctx mc.PolicyContext, a pcm.LineAddr) {
	bk := w.buffer(ctx, a)
	for i := range *bk {
		if (*bk)[i].addr == a {
			*bk = append((*bk)[:i], (*bk)[i+1:]...)
			return
		}
	}
}

// DrainFlush writes every buffered repair back (the buffer is volatile
// module state) and returns the bank cycles consumed. Runs under bypass,
// so the loop strictly empties the buffer.
func (w *Barrier) DrainFlush(ctx mc.PolicyContext) int {
	cycles := 0
	for b := range w.banks {
		for len(w.banks[b]) > 0 {
			victim := w.banks[b][0]
			w.banks[b] = w.banks[b][1:]
			cycles += w.correct(ctx, victim, 0)
		}
		w.banks[b] = nil
	}
	return cycles
}

// Scheme returns the IMDB design point: super dense 4F² VnC with the
// barrier as correction policy. The Policy hook installs a fresh Barrier
// per controller build; PolicyKey keeps runner memoization sound.
func Scheme(ecpEntries, bufPerBank int) core.Scheme {
	if bufPerBank <= 0 {
		bufPerBank = DefaultBufferPerBank
	}
	return core.Scheme{
		Name:       "IMDB",
		Layout:     geometry.SuperDense,
		ECPEntries: ecpEntries,
		Tag:        alloc.Tag11,
		Policy: func(cfg *mc.Config) {
			cfg.Correction = New(bufPerBank)
		},
		PolicyKey: fmt.Sprintf("imdb:%d", bufPerBank),
	}
}

func init() {
	core.Register("imdb", []string{"barrier"}, func(ecp int) core.Scheme {
		return Scheme(ecp, DefaultBufferPerBank)
	})
}
