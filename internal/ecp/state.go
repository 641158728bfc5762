package ecp

import (
	"slices"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the table's mutable state: the counters and every
// line's entry bookkeeping, in ascending address order so the encoding is
// deterministic. N, HardFn and the instruments are construction parameters.
func (t *Table) EncodeState(e *snap.Encoder) {
	e.Begin("ecp.table")
	e.U64(t.Stats.WDRecorded)
	e.U64(t.Stats.WDDuplicates)
	e.U64(t.Stats.Overflows)
	e.U64(t.Stats.ClearedByWrite)
	e.U64(t.Stats.ClearedByCorrect)
	e.U64(t.Stats.ECPBitWrites)
	addrs := make([]pcm.LineAddr, 0, len(t.lines))
	for a := range t.lines {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		s := t.lines[a]
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
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a freshly
// constructed table of the same configuration. Every line must satisfy owns
// (the owning controller's device and bank).
func (t *Table) DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error {
	d.Begin("ecp.table")
	t.Stats.WDRecorded = d.U64()
	t.Stats.WDDuplicates = d.U64()
	t.Stats.Overflows = d.U64()
	t.Stats.ClearedByWrite = d.U64()
	t.Stats.ClearedByCorrect = d.U64()
	t.Stats.ECPBitWrites = d.U64()
	t.lines = make(map[pcm.LineAddr]*lineState)
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
			d.Invalid("ecp: checkpoint holds line %d outside this controller's device or bank", a)
		}
		s := &lineState{hard: d.Int()}
		s.wd = cells()
		s.seen = cells()
		if d.Err() == nil && (s.hard < 0 || s.hard+len(s.wd) > t.N) {
			d.Invalid("ecp: checkpoint line %d holds %d hard + %d parked errors in %d entries",
				a, s.hard, len(s.wd), t.N)
		}
		t.lines[a] = s
	}
	d.End()
	return d.Err()
}
