package ecp

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the table's mutable state: the counters and every
// line's entry bookkeeping, in ascending address order so the encoding is
// deterministic. N, the lifetime and the instruments are construction
// parameters.
func (t *Table) EncodeState(e *snap.Encoder) {
	e.Begin("ecp.table")
	metrics.EncodeFields(e, t.Stats.Counters())
	e.Uvarint(uint64(t.index.Len()))
	t.index.Visit(func(a pcm.LineAddr, i uint32) {
		s := t.lines.At(i)
		e.U64(uint64(a))
		e.Int(s.hard)
		e.Uvarint(uint64(len(s.wd)))
		for _, c := range s.wd {
			e.Uvarint(uint64(c))
		}
		e.Uvarint(uint64(len(s.seen)))
		for _, c := range s.seen {
			e.Uvarint(uint64(c))
		}
	})
	e.End()
}

// DecodeState restores state written by EncodeState into a freshly
// constructed table of the same configuration. Every line must satisfy owns
// (a line of the owning controller's device) and be resident on the bound
// device, restored beforehand.
func (t *Table) DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error {
	d.Begin("ecp.table")
	metrics.DecodeFields(d, t.Stats.Counters())
	t.index.Reset()
	t.lines.Reset()
	// cells reads a list of cell indices, each inside one line.
	cells := func() []uint16 {
		k := d.Count()
		if k == 0 {
			return nil
		}
		out := make([]uint16, k)
		for j := range out {
			c := d.Uvarint()
			if d.Err() == nil && c >= pcm.LineBits {
				d.Invalid("ecp: checkpoint cell index %d outside a %d-bit line", c, pcm.LineBits)
			}
			out[j] = uint16(c)
		}
		return out
	}
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		a := pcm.LineAddr(d.U64())
		if d.Err() == nil && !owns(a) {
			d.Invalid("ecp: checkpoint holds line %d outside this controller's device", a)
		}
		if d.Err() == nil && !t.index.Device().Resident(a) {
			d.Invalid("ecp: checkpoint holds line %d, which the device does not hold", a)
		}
		s := lineState{hard: d.Int()}
		s.wd = cells()
		s.seen = cells()
		if d.Err() == nil && (s.hard < 0 || s.hard+len(s.wd) > t.N) {
			d.Invalid("ecp: checkpoint line %d holds %d hard + %d parked errors in %d entries",
				a, s.hard, len(s.wd), t.N)
		}
		if d.Err() == nil {
			t.index.Put(a, t.lines.Add(s))
		}
	}
	d.End()
	return d.Err()
}
