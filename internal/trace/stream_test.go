package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// bigTrace builds a trace whose encoding is much larger than the reader's
// buffer, with multi-byte varints (large line indices and gaps) so records
// straddle buffer refills at many alignments.
func bigTrace(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind: Kind(i & 1),
			Line: uint64(i) * 0x1_0000_0001,
			Gap:  uint32(i*7919) % 100000,
		}
	}
	return recs
}

func encode(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamReaderEquivalence: streaming through a buffer far smaller than
// the trace yields exactly the records ReadAll materialises.
func TestStreamReaderEquivalence(t *testing.T) {
	recs := bigTrace(5000)
	data := encode(t, recs)
	if len(data) < 16*1024 {
		t.Fatalf("trace too small (%d bytes) to exercise refills", len(data))
	}
	want, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamReaderSize(bytes.NewReader(data), 64)
	for i, w := range want {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at record %d of %d: %v", i, len(want), s.Err())
		}
		if got != w {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream yielded records past the end")
	}
	if s.Err() != nil {
		t.Fatalf("clean end reported error: %v", s.Err())
	}
	if s.Count() != uint64(len(want)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(want))
	}
}

// TestStreamReaderSlowReader: one-byte reads (the worst short-read pattern)
// must not corrupt varint reassembly.
func TestStreamReaderSlowReader(t *testing.T) {
	recs := bigTrace(300)
	data := encode(t, recs)
	s := NewStreamReader(iotest.OneByteReader(bytes.NewReader(data)))
	for i, w := range recs {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at record %d: %v", i, s.Err())
		}
		if got != w {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := s.Next(); ok || s.Err() != nil {
		t.Fatalf("end of slow stream: ok=%t err=%v", ok, s.Err())
	}
}

// TestStreamReaderTruncated: every proper prefix of a trace either decodes
// cleanly to fewer records (a cut between records) or latches a truncation
// error — never a panic, never a fabricated record.
func TestStreamReaderTruncated(t *testing.T) {
	recs := bigTrace(20)
	data := encode(t, recs)
	for cut := len(magic); cut < len(data); cut++ {
		s := NewStreamReader(bytes.NewReader(data[:cut]))
		n := 0
		for {
			got, ok := s.Next()
			if !ok {
				break
			}
			if got != recs[n] {
				t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, n, got, recs[n])
			}
			n++
		}
		if err := s.Err(); err == nil {
			// A clean stop is only legal exactly between records.
			if encoded := encode(t, recs[:n]); len(encoded) != cut {
				t.Fatalf("cut=%d: silent stop after %d records (inter-record boundary is %d)", cut, n, len(encoded))
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestStreamReaderZeroLength: a header-only trace is a valid empty stream.
func TestStreamReaderZeroLength(t *testing.T) {
	data := encode(t, nil)
	s := NewStreamReader(bytes.NewReader(data))
	if _, ok := s.Next(); ok {
		t.Fatal("empty trace yielded a record")
	}
	if s.Err() != nil {
		t.Fatalf("empty trace reported error: %v", s.Err())
	}
}

// TestStreamReaderBadMagic: garbage and empty input latch ErrBadMagic.
func TestStreamReaderBadMagic(t *testing.T) {
	for _, in := range []string{"NOPE then some bytes", ""} {
		s := NewStreamReader(bytes.NewReader([]byte(in)))
		if _, ok := s.Next(); ok {
			t.Fatalf("%q yielded a record", in)
		}
		if !errors.Is(s.Err(), ErrBadMagic) {
			t.Fatalf("%q: err = %v, want ErrBadMagic", in, s.Err())
		}
	}
}

// TestStreamReaderSkip: Skip fast-forwards exactly n records and reports
// short skips at end of trace.
func TestStreamReaderSkip(t *testing.T) {
	recs := bigTrace(100)
	data := encode(t, recs)
	s := NewStreamReaderSize(bytes.NewReader(data), 64)
	if n, err := s.Skip(40); n != 40 || err != nil {
		t.Fatalf("Skip(40) = %d, %v", n, err)
	}
	got, ok := s.Next()
	if !ok || got != recs[40] {
		t.Fatalf("after skip: %+v ok=%t, want %+v", got, ok, recs[40])
	}
	if n, err := s.Skip(1000); n != len(recs)-41 || err != nil {
		t.Fatalf("Skip past end = %d, %v; want %d", n, err, len(recs)-41)
	}
}

// TestSliceStreamSkip mirrors StreamReader.Skip semantics in memory.
func TestSliceStreamSkip(t *testing.T) {
	recs := bigTrace(10)
	s := NewSliceStream(recs)
	if n, err := s.Skip(4); n != 4 || err != nil {
		t.Fatalf("Skip(4) = %d, %v", n, err)
	}
	got, ok := s.Next()
	if !ok || got != recs[4] {
		t.Fatalf("after skip: %+v, want %+v", got, recs[4])
	}
	if n, err := s.Skip(99); n != 5 || err != nil {
		t.Fatalf("Skip past end = %d, %v; want 5", n, err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted slice stream yielded a record")
	}
}

// FuzzTraceReader checks the two decoders against each other on arbitrary
// input: ReadAll and a small-buffer StreamReader yield the same records in
// the same order and fail, or succeed, together without panicking; a trace
// ReadAll accepts survives a WriteAll round trip unchanged.
func FuzzTraceReader(f *testing.F) {
	one := encode(f, []Record{{Kind: Write, Line: 1 << 50, Gap: 99}})
	f.Add([]byte{})
	f.Add([]byte("SD"))
	f.Add(encode(f, nil))
	f.Add(one)
	f.Add(one[:len(one)-1])
	f.Add(encode(f, bigTrace(20)))
	f.Fuzz(func(t *testing.T, in []byte) {
		all, err := ReadAll(bytes.NewReader(in))
		s := NewStreamReaderSize(bytes.NewReader(in), 16)
		var streamed []Record
		for {
			rec, ok := s.Next()
			if !ok {
				break
			}
			streamed = append(streamed, rec)
		}
		if (err == nil) != (s.Err() == nil) {
			t.Fatalf("ReadAll err = %v, StreamReader err = %v", err, s.Err())
		}
		if err != nil {
			if err.Error() != s.Err().Error() {
				t.Fatalf("ReadAll err = %v, StreamReader err = %v", err, s.Err())
			}
			return
		}
		if !slices.Equal(all, streamed) {
			t.Fatalf("ReadAll gave %d records, StreamReader %d, or they differ", len(all), len(streamed))
		}
		again, err := ReadAll(bytes.NewReader(encode(t, all)))
		if err != nil || !slices.Equal(again, all) {
			t.Fatalf("round trip of %d records: %d back, err %v", len(all), len(again), err)
		}
	})
}
