// Package trace defines the memory-reference trace format the simulator
// consumes — the stand-in for the paper's PIN-captured SPEC2006/STREAM
// traces (§5.2): sequences of main-memory line references, each annotated
// with the instruction gap since the previous reference so the in-order core
// model can account CPI.
//
// Traces can be held in memory, streamed from generators (internal/
// workload), or serialised to a compact varint binary format for the
// sdpcm-trace tool.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a demand load miss reaching main memory.
	Read Kind = iota
	// Write is a dirty write-back reaching main memory.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one main-memory reference.
type Record struct {
	Kind Kind
	// Line is the virtual line index within the owning process's address
	// space (page = Line/64, slot = Line%64). The simulator maps it to a
	// physical line through the per-process page table.
	Line uint64
	// Gap is the number of non-memory instructions executed since the
	// previous record of the same core.
	Gap uint32
}

// Magic and version of the binary trace container.
var magic = [4]byte{'S', 'D', 'P', '1'}

// Writer serialises records to a stream.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	began bool
}

// NewWriter wraps w. The header is emitted lazily on the first Append.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Append writes one record.
func (t *Writer) Append(r Record) error {
	if !t.began {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.began = true
	}
	var buf [3 * binary.MaxVarintLen64]byte
	n := 0
	// Kind is folded into the low bit of the line field.
	n += binary.PutUvarint(buf[n:], r.Line<<1|uint64(r.Kind&1))
	n += binary.PutUvarint(buf[n:], uint64(r.Gap))
	if _, err := t.w.Write(buf[:n]); err != nil {
		return err
	}
	t.n++
	return nil
}

// Count returns the number of records appended so far.
func (t *Writer) Count() uint64 { return t.n }

// Flush commits buffered output. It must be called before the underlying
// writer is closed; an empty trace still gets a header.
func (t *Writer) Flush() error {
	if !t.began {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.began = true
	}
	return t.w.Flush()
}

// Reader deserialises records from a stream.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// NewReaderSize wraps r with an explicit buffer size (bufio rounds tiny
// sizes up to its minimum).
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// ErrBadMagic is returned when the stream is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic, not a trace stream")

// Next returns the next record, or io.EOF at clean end of stream.
func (t *Reader) Next() (Record, error) {
	if !t.header {
		var m [4]byte
		if _, err := io.ReadFull(t.r, m[:]); err != nil {
			// A writer always emits the header, so input too short to
			// hold one — empty included — is not a trace.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, ErrBadMagic
			}
			return Record{}, err
		}
		if m != magic {
			return Record{}, ErrBadMagic
		}
		t.header = true
	}
	lineKind, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	gap, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	if gap > uint64(^uint32(0)) {
		return Record{}, fmt.Errorf("trace: gap %d overflows uint32", gap)
	}
	return Record{
		Kind: Kind(lineKind & 1),
		Line: lineKind >> 1,
		Gap:  uint32(gap),
	}, nil
}

// ReadAll drains the reader into a slice.
func ReadAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var out []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAll serialises a slice of records.
func WriteAll(w io.Writer, recs []Record) error {
	tw := NewWriter(w)
	for _, r := range recs {
		if err := tw.Append(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Stream is the interface the simulator pulls references from; both replayed
// traces and live workload generators implement it.
type Stream interface {
	// Next returns the next reference. ok is false when the stream is
	// exhausted (generators never exhaust).
	Next() (Record, bool)
}

// SliceStream replays an in-memory record slice.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream wraps recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Stats summarises a trace.
type Stats struct {
	Records uint64
	Reads   uint64
	Writes  uint64
	Instrs  uint64 // total instructions including gaps and the refs themselves
	Pages   int    // distinct virtual pages touched
}

// RPKI returns reads per thousand instructions.
func (s Stats) RPKI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Instrs) * 1000
}

// WPKI returns writes per thousand instructions.
func (s Stats) WPKI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.Instrs) * 1000
}

// Summarize scans records and computes aggregate statistics.
func Summarize(recs []Record) Stats {
	var st Stats
	pages := make(map[uint64]struct{})
	for _, r := range recs {
		st.Records++
		if r.Kind == Read {
			st.Reads++
		} else {
			st.Writes++
		}
		st.Instrs += uint64(r.Gap) + 1
		pages[r.Line/64] = struct{}{}
	}
	st.Pages = len(pages)
	return st
}
