package weargap

import (
	"slices"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the intra-row layer: the shared write counter, the
// aggregate move count and every instantiated row leveler in ascending page
// order. psi is a construction parameter.
func (w *IntraRow) EncodeState(e *snap.Encoder) {
	e.Begin("weargap.intrarow")
	e.Int(w.wcnt)
	e.U64(w.Moves)
	keys := make([]pcm.PageAddr, 0, len(w.rows))
	for k := range w.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		l := w.rows[k]
		e.Uvarint(uint64(k))
		e.Int(l.wcnt)
		e.Int(l.start)
		e.Int(l.gap)
		e.U64(l.Moves)
		e.U64(l.Rotations)
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a layer freshly
// built with the same psi; row levelers are re-instantiated on demand.
// Counters and rotation offsets must lie inside psi and the row, so a
// corrupt file cannot map a line outside its row.
func (w *IntraRow) DecodeState(d *snap.Decoder) error {
	d.Begin("weargap.intrarow")
	w.wcnt = d.Int()
	w.Moves = d.U64()
	if d.Err() == nil && (w.wcnt < 0 || w.wcnt >= w.psi) {
		d.Invalid("weargap: checkpoint write counter %d outside psi %d", w.wcnt, w.psi)
	}
	n := d.Count()
	w.rows = make(map[pcm.PageAddr]*Leveler, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := pcm.PageAddr(d.Uvarint())
		l, err := New(pcm.LinesPerPage-1, w.psi) // same shape leveler() builds
		if err != nil {
			return err
		}
		l.wcnt = d.Int()
		l.start = d.Int()
		l.gap = d.Int()
		l.Moves = d.U64()
		l.Rotations = d.U64()
		if d.Err() == nil && (l.wcnt < 0 || l.wcnt >= l.psi || l.start < 0 || l.start >= l.n || l.gap < 0 || l.gap > l.n) {
			d.Invalid("weargap: checkpoint row %d has counter %d, start %d, gap %d outside psi %d and %d lines",
				k, l.wcnt, l.start, l.gap, l.psi, l.n)
		}
		w.rows[k] = l
	}
	d.End()
	return d.Err()
}
