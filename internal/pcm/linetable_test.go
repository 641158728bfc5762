package pcm

import (
	"slices"
	"testing"

	"sdpcm/internal/snap"
)

// TestSlotAndMaterialize: Materialize installs the background image once and
// returns the slot Slot then reports; Write and Disturb keep the slot.
func TestSlotAndMaterialize(t *testing.T) {
	d := newTestDevice(t, 64, false)
	a := LineAddr(777)
	if _, s := d.Slot(a); s != 0 || d.Resident(a) {
		t.Fatal("an untouched line has no slot")
	}
	if _, s := d.Slot(LineAddr(d.Lines())); s != 0 {
		t.Fatal("a line past the device has no slot")
	}
	bg := d.Peek(a)
	bank, s := d.Materialize(a)
	if s == 0 || bank != d.Geometry().Locate(a).Bank || d.Peek(a) != bg {
		t.Fatalf("Materialize = bank %d slot %d, content changed %t", bank, s, d.Peek(a) != bg)
	}
	d.Write(a, Line{1}, NormalWrite)
	d.Disturb(a, Mask{2})
	if b2, s2 := d.Slot(a); b2 != bank || s2 != s {
		t.Fatalf("slot moved from %d/%d to %d/%d", bank, s, b2, s2)
	}
	if _, s2 := d.Materialize(a); s2 != s {
		t.Fatal("Materialize of a resident line must return its slot")
	}
}

// TestLineTable: entries keep stored zeros apart from absent lines, only
// Put materializes, and Visit walks ascending addresses across banks.
func TestLineTable(t *testing.T) {
	d := newTestDevice(t, 64, true)
	tab := NewLineTable(d)
	addrs := []LineAddr{4000, 3, 64, 65, 2000, 1}
	for i, a := range addrs {
		tab.Put(a, uint32(i))
	}
	tab.Put(64, 9) // overwrite
	if tab.Len() != len(addrs) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(addrs))
	}
	if !tab.Has(4000) || tab.Get(4000) != 0 {
		t.Fatal("a stored 0 must be an entry")
	}
	if tab.Has(5) || tab.Get(5) != 0 || d.Resident(5) {
		t.Fatal("lookups must not create entries or storage")
	}
	d.Write(5, Line{1}, NormalWrite) // resident, yet no entry
	if tab.Has(5) {
		t.Fatal("residency alone is not an entry")
	}
	var got []LineAddr
	tab.Visit(func(a LineAddr, v uint32) {
		got = append(got, a)
		if want := map[LineAddr]uint32{1: 5, 3: 1, 64: 9, 65: 3, 2000: 4, 4000: 0}[a]; v != want {
			t.Errorf("line %d holds %d, want %d", a, v, want)
		}
	})
	if !slices.Equal(got, []LineAddr{1, 3, 64, 65, 2000, 4000}) {
		t.Fatalf("Visit order %v", got)
	}
}

// TestLineTableEntriesRoundTrip: entries decode by address onto a restored
// device whose slots differ from the encoding device's.
func TestLineTableEntriesRoundTrip(t *testing.T) {
	d := newTestDevice(t, 64, false)
	tab := NewLineTable(d)
	for _, a := range []LineAddr{900, 17, 3000, 18} {
		tab.Put(a, uint32(a)*3)
	}
	e := snap.NewEncoder(1)
	d.EncodeState(e)
	e.Begin("t")
	tab.EncodeEntries(e)
	e.End()
	dec, err := snap.NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newTestDevice(t, 64, false)
	d2.Write(5, Line{}, NormalWrite) // stale state the restore drops
	if err := d2.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	tab2 := NewLineTable(d2)
	dec.Begin("t")
	tab2.DecodeEntries(dec, "t", func(LineAddr) bool { return true })
	dec.End()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for _, a := range []LineAddr{900, 17, 3000, 18} {
		if !tab2.Has(a) || tab2.Get(a) != uint32(a)*3 {
			t.Fatalf("line %d restored as %d (has %t)", a, tab2.Get(a), tab2.Has(a))
		}
	}
	if tab2.Len() != 4 {
		t.Fatalf("Len = %d after restore", tab2.Len())
	}
}

// TestStandaloneLineTable: a table built without a device keys its entries
// by a private device spanning the 32-bit line range, whose slots and
// entries stay put as lines arrive far apart; Reset keeps it standalone, and
// a line past that range panics.
func TestStandaloneLineTable(t *testing.T) {
	tab := NewLineTable(nil)
	tab.Put(3, 30)
	tab.Put(0, 0)
	_, s := tab.Device().Slot(3)
	tab.Put(1<<24, 7)
	if _, s2 := tab.Device().Slot(3); s2 != s {
		t.Fatal("a far line must keep the earlier lines' slots")
	}
	if tab.Get(3) != 30 || !tab.Has(0) || tab.Get(1<<24) != 7 || tab.Len() != 3 {
		t.Fatal("a far line must keep every entry")
	}
	if tab.Device().Lines() <= 1<<24 {
		t.Fatalf("private device holds %d lines, want past %d", tab.Device().Lines(), 1<<24)
	}
	tab.Reset()
	tab.Put(1<<26, 1)
	if tab.Len() != 1 || tab.Has(3) || tab.Get(1<<26) != 1 {
		t.Fatal("Reset must drop the entries and keep the table standalone")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a line past the 32-bit slot range must panic")
		}
	}()
	tab.Put(1<<62, 1)
}
