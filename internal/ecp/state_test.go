package ecp

import (
	"errors"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// TestDecodeRejectsOutOfRangeState: a line must be one the owning
// controller serves, parked cells must lie inside it and its hard plus
// parked errors must fit its entries.
func TestDecodeRejectsOutOfRangeState(t *testing.T) {
	const entries = 6
	owns := func(a pcm.LineAddr) bool { return a < 100 }
	for _, tc := range []struct {
		name string
		addr uint64
		hard int
		wd   []uint64
	}{
		{"valid", 42, 2, []uint64{0, pcm.LineBits - 1}},
		{"line the controller does not own", 100, 0, []uint64{1}},
		{"cell past the line", 42, 0, []uint64{pcm.LineBits}},
		{"over-full line", 42, 5, []uint64{1, 2}},
		{"negative hard count", 42, -1, nil},
	} {
		e := snap.NewEncoder(1)
		e.Begin("ecp.table")
		for range 6 {
			e.U64(0) // stats
		}
		e.Uvarint(1)
		e.U64(tc.addr)
		e.Int(tc.hard)
		e.Uvarint(uint64(len(tc.wd)))
		for _, c := range tc.wd {
			e.Uvarint(c)
		}
		e.Uvarint(0) // seen
		e.End()
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		err = mustNew(t, entries).DecodeState(d, owns)
		var ie *snap.InvalidError
		if (err == nil) != (tc.name == "valid") || (err != nil && !errors.As(err, &ie)) {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}
