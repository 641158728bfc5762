package vm

import (
	"bytes"
	"errors"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/snap"
)

// encodeSection hand-encodes a vm.addrspace section for NewAddressSpace's
// 16×4 TLB: the given pages, the i-th mapped to frame i under (1:1), an
// empty TLB and pool, and no faults.
func encodeSection(vpages []uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("vm.addrspace")
	e.Uvarint(uint64(len(vpages)))
	for i, v := range vpages {
		e.U64(v)
		e.U64(uint64(i))
		e.Int(1)
		e.Int(1)
	}
	e.Int(16)
	e.Int(4)
	for i := 0; i < 64; i++ {
		e.U64(0)
		e.U64(0)
		e.Int(0)
		e.Int(0)
		e.Bool(false)
		e.U64(0)
	}
	e.U64(0)     // clock
	e.U64(0)     // hits
	e.U64(0)     // misses
	e.Uvarint(0) // pool
	e.U64(0)     // faults
	e.End()
	return e.Finish()
}

// TestDecodeStatePageOrder: page-table entries must ascend strictly, the
// only order EncodeState writes. A repeated or descending page is a typed
// *snap.InvalidError; a valid section decodes to the same translations and
// re-encodes byte for byte.
func TestDecodeStatePageOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vpages []uint64
		ok     bool
	}{
		{"valid", []uint64{0, 1, 63, 64, 1000, 1 << 40}, true},
		{"repeated page", []uint64{5, 9, 9}, false},
		{"descending page", []uint64{5, 200, 70}, false},
	} {
		data := encodeSection(tc.vpages)
		dec, err := snap.NewDecoder(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		as, err := NewAddressSpace(newAlloc(t), alloc.Tag11, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = as.DecodeState(dec)
		if !tc.ok {
			var ie *snap.InvalidError
			if !errors.As(err, &ie) {
				t.Errorf("%s: DecodeState err = %v, want a *snap.InvalidError", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if as.MappedPages() != len(tc.vpages) {
			t.Fatalf("%s: %d pages mapped, want %d", tc.name, as.MappedPages(), len(tc.vpages))
		}
		for i, v := range tc.vpages {
			if tr, ok := as.PT.Lookup(v); !ok || int(tr.Frame) != i || tr.Tag != alloc.Tag11 {
				t.Fatalf("%s: page %d → %+v, %t", tc.name, v, tr, ok)
			}
		}
		e := snap.NewEncoder(1)
		as.EncodeState(e)
		if !bytes.Equal(e.Finish(), data) {
			t.Fatalf("%s: re-encoding a decoded section changed its bytes", tc.name)
		}
	}
}
