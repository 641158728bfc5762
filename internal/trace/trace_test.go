package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: Read, Line: 0, Gap: 0},
		{Kind: Write, Line: 12345678, Gap: 42},
		{Kind: Read, Line: 1 << 40, Gap: ^uint32(0)},
		{Kind: Write, Line: 7, Gap: 1},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(lines []uint64, gaps []uint32, kinds []bool) bool {
		n := len(lines)
		if len(gaps) < n {
			n = len(gaps)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			recs[i] = Record{Kind: k, Line: lines[i] >> 1, Gap: gaps[i]}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v, %d records", err, len(got))
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadAll(bytes.NewBufferString("not a trace"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// Too-short stream is also bad magic, not EOF.
	_, err = ReadAll(bytes.NewBufferString("SD"))
	if err != ErrBadMagic {
		t.Fatalf("short stream err = %v, want ErrBadMagic", err)
	}
	// So is an empty one: a writer always emits the header.
	_, err = ReadAll(bytes.NewReader(nil))
	if err != ErrBadMagic {
		t.Fatalf("empty stream err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{{Kind: Write, Line: 1 << 50, Gap: 99}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-record (after magic, inside the varints).
	_, err := ReadAll(bytes.NewReader(full[:len(full)-1]))
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream err = %v, want an error", err)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		if err := w.Append(Record{Line: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Record{{Line: 1}, {Line: 2}})
	r1, ok := s.Next()
	if !ok || r1.Line != 1 {
		t.Fatal("first record wrong")
	}
	if r2, ok := s.Next(); !ok || r2.Line != 2 {
		t.Fatal("second record wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream must return ok=false")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Kind: Read, Line: 0, Gap: 9},    // page 0
		{Kind: Write, Line: 63, Gap: 9},  // page 0
		{Kind: Read, Line: 64, Gap: 9},   // page 1
		{Kind: Write, Line: 640, Gap: 9}, // page 10
	}
	st := Summarize(recs)
	if st.Records != 4 || st.Reads != 2 || st.Writes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Instrs != 40 {
		t.Fatalf("instrs = %d, want 40", st.Instrs)
	}
	if st.Pages != 3 {
		t.Fatalf("pages = %d, want 3", st.Pages)
	}
	// 2 reads per 40 instructions = 50 RPKI.
	if st.RPKI() != 50 || st.WPKI() != 50 {
		t.Fatalf("RPKI/WPKI = %v/%v", st.RPKI(), st.WPKI())
	}
	empty := Summarize(nil)
	if empty.RPKI() != 0 || empty.WPKI() != 0 {
		t.Fatal("empty trace must have zero xPKI")
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("kind strings wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Fatal("unknown kind string wrong")
	}
}
