package din

import (
	"errors"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// TestDecodeRejectsUnownedLine: coding bits must belong to a line the owning
// controller serves.
func TestDecodeRejectsUnownedLine(t *testing.T) {
	owns := func(a pcm.LineAddr) bool { return a < 100 }
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"valid", 99},
		{"line the controller does not own", 100},
	} {
		e := snap.NewEncoder(1)
		e.Begin("din.codec")
		e.Bool(true)
		for range 4 {
			e.U64(0) // stats
		}
		e.Uvarint(1)
		e.U64(tc.addr)
		e.Uvarint(0b101) // aux bits
		e.End()
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCodec()
		err = c.DecodeState(d, owns)
		var ie *snap.InvalidError
		if (err == nil) != (tc.name == "valid") || (err != nil && !errors.As(err, &ie)) {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
		if err == nil && c.AuxBits(pcm.LineAddr(tc.addr)) != 0b101 {
			t.Errorf("%s: aux bits not restored", tc.name)
		}
	}
}
