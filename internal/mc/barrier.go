package mc

import (
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// This file is the in-module disturbance barrier, active under
// Config.Correction == Barrier ("An In-Module Disturbance Barrier for
// Mitigating Write Disturbance in Phase-Change Memory"): a small per-bank
// victim buffer inside the module absorbs the disturbed-neighbour rewrites
// VnC would otherwise issue on the critical path. Where LazyCorrection
// (§4.2) parks errors per line in ECP entries, the barrier pools a few
// repair records per bank and writes them back only on eviction or flush.
// Reads see the buffered repairs applied (PeekData), a fresh write drops
// its line's record (executeWrite), and Flush drains every buffer: the
// buffer is volatile module SRAM.

// BarrierCapacity is the barrier's per-bank victim-buffer capacity. Eight
// records per bank is SRAM on the module's buffer chip, far below the
// per-line ECP provisioning it replaces.
const BarrierCapacity = 8

// repair is one buffered record: the disturbed line and the accumulated
// mask of spuriously SET cells awaiting a clearing rewrite.
type repair struct {
	addr pcm.LineAddr
	mask pcm.Mask
}

// barrier is the controller's victim-buffer state.
type barrier struct {
	// banks holds one victim buffer per controller bank, sized on the
	// first write, so a controller that was only read checkpoints none.
	banks [][]repair
	// bypass disables absorption while the barrier itself corrects
	// (evictions and the flush drain): the cascades those rewrites trigger
	// resolve eagerly, so recursion stays depth-bounded and the buffer only
	// ever shrinks while draining.
	bypass bool
	// evictions and coalesced count buffer activity beyond what Stats sees
	// (absorbed batches count as LazyRecords there).
	evictions, coalesced uint64
}

// buffer returns the victim buffer of line a's bank.
func (w *barrier) buffer(c *Controller, a pcm.LineAddr) *[]repair {
	if w.banks == nil {
		w.banks = make([][]repair, len(c.banks))
	}
	return &w.banks[c.geo.Locate(a).Bank]
}

// absorb claims a detected error batch into its bank's victim buffer and
// returns the bank cycles that took. Repairs for a line already buffered
// coalesce by OR-ing masks: WD flips are spurious SETs and the eventual
// correction clears the union, so accumulation is order-independent (the
// property ECP parking relies on). A full buffer evicts its oldest record
// through the standard correction path.
func (w *barrier) absorb(c *Controller, addr pcm.LineAddr, flips pcm.Mask, depth int) (int, bool) {
	if w.bypass {
		return 0, false
	}
	bk := w.buffer(c, addr)
	for i := range *bk {
		if (*bk)[i].addr == addr {
			(*bk)[i].mask = (*bk)[i].mask.Or(flips)
			w.coalesced++
			return 0, true
		}
	}
	cycles := 0
	if len(*bk) >= BarrierCapacity {
		victim := (*bk)[0]
		*bk = append((*bk)[:0], (*bk)[1:]...)
		cycles = w.correct(c, victim, depth)
		w.evictions++
	}
	*bk = append(*bk, repair{addr: addr, mask: flips})
	return cycles, true
}

// correct writes one buffered repair back under bypass, so the rewrite's
// own cascade resolves eagerly instead of re-entering the buffer.
func (w *barrier) correct(c *Controller, r repair, depth int) int {
	w.bypass = true
	cycles := c.correctLine(r.addr, r.mask, depth)
	w.bypass = false
	return cycles
}

// overrideRead masks a buffered repair out of read data: the module knows
// which cells of the line are spuriously SET and clears them on the way
// out, exactly as the pending correction would. It only looks up, so reads
// never size the buffers.
func (w *barrier) overrideRead(c *Controller, a pcm.LineAddr, line pcm.Line) pcm.Line {
	if w.banks == nil {
		return line
	}
	for _, r := range w.banks[c.geo.Locate(a).Bank] {
		if r.addr == a {
			for j := range line {
				line[j] &^= r.mask[j]
			}
			break
		}
	}
	return line
}

// observeWrite drops the buffered repair of a line about to be
// reprogrammed: the fresh write supersedes the stale mask (the rule that
// releases parked ECP entries for free, §4.2).
func (w *barrier) observeWrite(c *Controller, a pcm.LineAddr) {
	bk := w.buffer(c, a)
	for i := range *bk {
		if (*bk)[i].addr == a {
			*bk = append((*bk)[:i], (*bk)[i+1:]...)
			return
		}
	}
}

// drain writes every buffered repair back and returns the bank cycles
// consumed. It runs under bypass, so the loop strictly empties the buffer.
func (w *barrier) drain(c *Controller) int {
	cycles := 0
	for b := range w.banks {
		for len(w.banks[b]) > 0 {
			victim := w.banks[b][0]
			w.banks[b] = w.banks[b][1:]
			cycles += w.correct(c, victim, 0)
		}
		w.banks[b] = nil
	}
	return cycles
}

// encodeState serializes the barrier's counters and victim buffers. bypass
// is transient within one correction, so always false at a checkpoint.
func (w *barrier) encodeState(e *snap.Encoder) {
	e.Begin("imdb.barrier")
	e.U64(w.evictions)
	e.U64(w.coalesced)
	e.Uvarint(uint64(len(w.banks)))
	for b := range w.banks {
		e.Uvarint(uint64(len(w.banks[b])))
		for _, r := range w.banks[b] {
			e.U64(uint64(r.addr))
			pcm.EncodeLine(e, pcm.Line(r.mask))
		}
	}
	e.End()
}

// decodeState restores state written by encodeState: the buffers are
// absent (never written) or one per bank of c, each within capacity, and
// every record names a line of c's device held in its own bank's buffer at
// most once.
func (w *barrier) decodeState(c *Controller, d *snap.Decoder) error {
	d.Begin("imdb.barrier")
	w.evictions = d.U64()
	w.coalesced = d.U64()
	banks := d.Count()
	if d.Err() == nil && banks != 0 && banks != len(c.banks) {
		d.Invalid("mc: checkpoint holds %d barrier buffers for a %d-bank controller", banks, len(c.banks))
	}
	w.banks = nil
	if banks > 0 && d.Err() == nil {
		w.banks = make([][]repair, banks)
	}
	for b := range w.banks {
		n := d.Count()
		if d.Err() == nil && n > BarrierCapacity {
			d.Invalid("mc: checkpoint holds %d repairs in bank %d's %d-record barrier buffer", n, b, BarrierCapacity)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			addr := pcm.LineAddr(d.U64())
			mask := pcm.Mask(pcm.DecodeLine(d))
			switch {
			case d.Err() != nil:
			case !c.owns(addr) || c.geo.Locate(addr).Bank != b:
				d.Invalid("mc: checkpoint holds a repair of line %d in bank %d's barrier buffer", addr, b)
			case w.holds(b, addr):
				d.Invalid("mc: checkpoint holds two barrier repairs of line %d (repairs coalesce)", addr)
			}
			w.banks[b] = append(w.banks[b], repair{addr: addr, mask: mask})
		}
	}
	d.End()
	return d.Err()
}

// holds reports whether bank b's buffer has a record for line a.
func (w *barrier) holds(b int, a pcm.LineAddr) bool {
	for _, r := range w.banks[b] {
		if r.addr == a {
			return true
		}
	}
	return false
}
