package pcm

import (
	"bytes"
	"errors"
	"testing"

	"sdpcm/internal/metrics"
	"sdpcm/internal/snap"
)

// chunkEntry is one hand-encoded chunk of a pcm.device section.
type chunkEntry struct {
	ci       uint64
	resident uint64
}

// encodeBank0 hand-encodes a pcm.device section for a 16-page device (four
// chunks per bank) with counters st whose bank 0 holds the given chunks,
// each resident line storing its own bank-local index, and whose other
// banks are untouched.
func encodeBank0(st Stats, chunks []chunkEntry) []byte {
	e := snap.NewEncoder(1)
	e.Begin("pcm.device")
	metrics.EncodeFields(e, st.Counters())
	for b := 0; b < NumBanks; b++ {
		if b != 0 {
			e.Uvarint(0)
			continue
		}
		e.Uvarint(uint64(len(chunks)))
		for _, c := range chunks {
			e.Uvarint(c.ci)
			e.U64(c.resident)
			for i := uint64(0); i < chunkLines; i++ {
				if c.resident&(1<<i) != 0 {
					EncodeLine(e, Line{c.ci<<chunkShift | i})
				}
			}
		}
	}
	e.End()
	return e.Finish()
}

// TestDecodeRejectsMalformedChunks: chunk indices must ascend strictly and
// lie inside the bank, and a bitmap must name at least one of the chunk's
// lines — the only sections EncodeState writes. A valid section round-trips
// byte for byte.
func TestDecodeRejectsMalformedChunks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks []chunkEntry
	}{
		{"valid", []chunkEntry{{0, 0b1}, {2, 0b1000_0000_0000_0101}}},
		{"repeated index", []chunkEntry{{1, 0b1}, {1, 0b10}}},
		{"descending index", []chunkEntry{{2, 0b1}, {1, 0b1}}},
		{"empty bitmap", []chunkEntry{{0, 0}}},
		{"index past the bank", []chunkEntry{{4, 0b1}}},
		{"bits past the chunk", []chunkEntry{{0, 1 << chunkLines}}},
	} {
		data := encodeBank0(Stats{}, tc.chunks)
		dec, err := snap.NewDecoder(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := newTestDevice(t, 16, true)
		err = d.DecodeState(dec)
		if tc.name != "valid" {
			var ie *snap.InvalidError
			if !errors.As(err, &ie) {
				t.Errorf("%s: DecodeState err = %v, want a *snap.InvalidError", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid section rejected: %v", err)
		}
		// Bank 0's local index i is line i for a one-row-per-bank device.
		for _, c := range tc.chunks {
			for i := uint64(0); i < chunkLines; i++ {
				a := LineAddr(c.ci<<chunkShift | i)
				if got, want := d.Resident(a), c.resident&(1<<i) != 0; got != want {
					t.Fatalf("line %d resident = %t, want %t", a, got, want)
				}
				if d.Resident(a) && d.Peek(a) != (Line{uint64(a)}) {
					t.Fatalf("line %d decoded as %v", a, d.Peek(a))
				}
			}
		}
		e := snap.NewEncoder(1)
		d.EncodeState(e)
		if !bytes.Equal(e.Finish(), data) {
			t.Fatal("re-encoding a decoded section changed its bytes")
		}
	}
}

// TestEncodeStateOrder: chunks encode in ascending index with their lines in
// bit order, whatever order the lines were first touched in, and a decode
// into a used device replaces its state.
func TestEncodeStateOrder(t *testing.T) {
	src := newTestDevice(t, 16, false)
	// Bank 0 holds lines 0..63 of a one-row-per-bank device.
	for _, a := range []LineAddr{40, 3, 17, 2, 63} {
		src.Write(a, Line{uint64(a)}, NormalWrite)
	}
	e := snap.NewEncoder(1)
	src.EncodeState(e)
	data := e.Finish()
	want := encodeBank0(src.Stats(), []chunkEntry{{0, 1<<2 | 1<<3}, {1, 1 << 1}, {2, 1 << 8}, {3, 1 << 15}})
	if !bytes.Equal(data, want) {
		t.Fatal("pcm.device section is not in ascending chunk and bit order")
	}
	dst := newTestDevice(t, 16, false)
	dst.Write(50, Line{9}, NormalWrite)
	dst.Write(70, Line{9}, NormalWrite)
	dec, err := snap.NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	for a := LineAddr(0); a < LineAddr(dst.Lines()); a++ {
		if dst.Peek(a) != src.Peek(a) || dst.Resident(a) != src.Resident(a) {
			t.Fatalf("line %d differs after decode", a)
		}
	}
}
