package din

import (
	"errors"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// TestDecodeRejectsUnownedLine: coding bits must belong to a line the owning
// controller serves and the restored device holds.
func TestDecodeRejectsUnownedLine(t *testing.T) {
	owns := func(a pcm.LineAddr) bool { return a < 100 }
	dev, err := pcm.NewDevice(pcm.Config{Pages: 16, ZeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	dev.Write(99, pcm.Line{1}, pcm.NormalWrite)
	dev.Write(100, pcm.Line{1}, pcm.NormalWrite)
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"valid", 99},
		{"line the controller does not own", 100},
		{"line the device does not hold", 98},
	} {
		e := snap.NewEncoder(1)
		e.Begin("din.codec")
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
		c.Bind(dev)
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
