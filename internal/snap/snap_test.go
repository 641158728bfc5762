package snap

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("outer")
	e.Uvarint(42)
	e.Varint(-7)
	e.Int(123456)
	e.U64(0xdeadbeefcafef00d)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{1, 2, 3})
	e.Begin("inner")
	e.Uvarint(7)
	e.End()
	e.End()
	data := e.Finish()

	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Begin("outer")
	if got := d.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d, want 42", got)
	}
	if got := d.Varint(); got != -7 {
		t.Errorf("Varint = %d, want -7", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d, want 123456", got)
	}
	if got := d.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", got)
	}
	d.Begin("inner")
	if got := d.Uvarint(); got != 7 {
		t.Errorf("inner Uvarint = %d", got)
	}
	d.End()
	d.End()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	data := NewEncoder(2).Finish()
	_, err := NewDecoder(data, 1)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != 2 || ve.Want != 1 {
		t.Errorf("VersionError = %+v", ve)
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint version 2") {
		t.Errorf("message %q lacks version phrase", err.Error())
	}
}

func TestBadMagic(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("SD"), []byte("XXXX\x01\x00\x00\x00")} {
		if _, err := NewDecoder(data, 1); err == nil {
			t.Errorf("NewDecoder(%q) succeeded, want error", data)
		}
	}
}

// Every truncation of a valid snapshot must decode to an error, never panic.
func TestTruncationsError(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.Uvarint(300)
	e.U64(7)
	e.String("abc")
	e.Bool(true)
	e.End()
	full := e.Finish()
	for n := headerLen; n < len(full); n++ {
		d, err := NewDecoder(full[:n], 1)
		if err != nil {
			continue // header itself truncated
		}
		d.Begin("s")
		d.Uvarint()
		d.U64()
		_ = d.String()
		d.Bool()
		d.End()
		if d.Close() == nil {
			t.Errorf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

func TestSectionNameMismatch(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("alpha")
	e.End()
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("beta")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), `"alpha"`) {
		t.Errorf("Err = %v, want section-name mismatch naming alpha", d.Err())
	}
}

func TestLeftoverBytesRejected(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.U64(1)
	e.U64(2)
	e.End()
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("s")
	d.U64() // reader consumes less than the writer wrote
	d.End()
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Errorf("Close = %v, want unconsumed-bytes error", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.End()
	data := append(e.Finish(), 0xff)
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("s")
	d.End()
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Close = %v, want trailing-bytes error", err)
	}
}

func TestCorruptBool(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.Bool(true)
	e.End()
	data := e.Finish()
	data[len(data)-1] = 0x7f // the bool byte is the section's last byte
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("s")
	d.Bool()
	if d.Err() == nil {
		t.Error("corrupt bool byte decoded cleanly")
	}
}

// A section length that overruns the file must be rejected up front, so the
// payload reads that follow cannot index out of range.
func TestOverrunningSectionLength(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.U64(9)
	e.End()
	data := e.Finish()
	// The section length word sits right after the name "s" (uvarint 1 + 's').
	binary.LittleEndian.PutUint64(data[headerLen+2:], 1<<40)
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("s")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "overruns") {
		t.Errorf("Err = %v, want overrun error", d.Err())
	}
}

func TestStickyError(t *testing.T) {
	d, err := NewDecoder(NewEncoder(1).Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.U64() // fails: no payload
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.Uvarint()
	_ = d.String()
	if d.Err() != first {
		t.Errorf("later reads replaced the first error: %v", d.Err())
	}
}

// TestCountBoundedBySection: a count the enclosing section cannot hold (one
// byte per element at least) fails instead of sizing an allocation, and an
// Invalid report is sticky like a malformed read.
func TestCountBoundedBySection(t *testing.T) {
	e := NewEncoder(1)
	e.Begin("s")
	e.Uvarint(3)
	e.Bool(true)
	e.Bool(false)
	e.Bool(true)
	e.Uvarint(1 << 40)
	e.End()
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("s")
	if n := d.Count(); n != 3 || d.Err() != nil {
		t.Fatalf("Count = %d (err %v), want 3", n, d.Err())
	}
	d.Bool()
	d.Bool()
	d.Bool()
	if n := d.Count(); n != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "overruns") {
		t.Fatalf("Count = %d (err %v), want 0 and an overrun error", n, d.Err())
	}

	d, _ = NewDecoder(NewEncoder(1).Finish(), 1)
	d.Invalid("frame %d out of range", 7)
	d.Uvarint()
	var ie *InvalidError
	if d.Err() == nil || d.Err().Error() != "frame 7 out of range" || !errors.As(d.Err(), &ie) {
		t.Fatalf("Err = %v, want the Invalid report to stick as an *InvalidError", d.Err())
	}
}
