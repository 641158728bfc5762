package imdb

import (
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodePolicyState serializes the barrier's victim buffers and counters,
// implementing mc.PolicyState so runs using the barrier scheme checkpoint
// and resume exactly. Capacity is a construction parameter, and bypass is
// transient within one correction — both always false/fixed at the
// checkpoint barrier.
func (w *Barrier) EncodePolicyState(e *snap.Encoder) {
	e.Begin("imdb.barrier")
	e.U64(w.Evictions)
	e.U64(w.Coalesced)
	e.Uvarint(uint64(len(w.banks)))
	for b := range w.banks {
		e.Uvarint(uint64(len(w.banks[b])))
		for _, en := range w.banks[b] {
			e.U64(uint64(en.addr))
			pcm.EncodeLine(e, pcm.Line(en.mask))
		}
	}
	e.End()
}

// DecodePolicyState restores state written by EncodePolicyState into the
// barrier of a controller with the same geometry: the buffers are absent
// (never used) or one per bank, and every record names a line of the
// device held in its own bank's buffer.
func (w *Barrier) DecodePolicyState(ctx mc.PolicyContext, d *snap.Decoder) error {
	d.Begin("imdb.barrier")
	w.Evictions = d.U64()
	w.Coalesced = d.U64()
	banks := d.Count()
	if d.Err() == nil && banks != 0 && banks != ctx.Banks() {
		d.Invalid("imdb: checkpoint holds %d bank buffers for a %d-bank controller", banks, ctx.Banks())
	}
	w.banks = nil
	if banks > 0 && d.Err() == nil {
		w.banks = make([][]entry, banks)
	}
	for b := range w.banks {
		n := d.Count()
		if d.Err() == nil && n > w.cap {
			d.Invalid("imdb: checkpoint holds %d records in bank %d's %d-record buffer", n, b, w.cap)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			addr := pcm.LineAddr(d.U64())
			mask := pcm.Mask(pcm.DecodeLine(d))
			switch {
			case d.Err() != nil:
			case !ctx.Owns(addr) || ctx.Bank(addr) != b:
				d.Invalid("imdb: checkpoint holds a repair of line %d in bank %d's buffer", addr, b)
			case w.holds(b, addr):
				d.Invalid("imdb: checkpoint holds two repairs of line %d (repairs coalesce)", addr)
			}
			w.banks[b] = append(w.banks[b], entry{addr: addr, mask: mask})
		}
	}
	d.End()
	return d.Err()
}

// holds reports whether bank b's buffer has a record for line a.
func (w *Barrier) holds(b int, a pcm.LineAddr) bool {
	for _, en := range w.banks[b] {
		if en.addr == a {
			return true
		}
	}
	return false
}
