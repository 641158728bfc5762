package weargap

import (
	"testing"
	"testing/quick"

	"sdpcm/internal/pcm"
)

func mustNew(t *testing.T, n, psi int) *Leveler {
	t.Helper()
	l, err := New(n, psi)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("zero region must be rejected")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("zero psi must be rejected")
	}
}

func TestInitialMappingIsIdentity(t *testing.T) {
	l := mustNew(t, 16, 100)
	for i := 0; i < 16; i++ {
		if l.Map(i) != i {
			t.Fatalf("fresh leveler Map(%d) = %d", i, l.Map(i))
		}
	}
	if l.GapSlot() != 16 {
		t.Fatalf("gap = %d, want 16 (spare at the end)", l.GapSlot())
	}
}

func TestMappingIsAlwaysBijective(t *testing.T) {
	// Property: at every point of the rotation, Map is injective and never
	// targets the gap slot.
	l := mustNew(t, 17, 3)
	check := func() {
		t.Helper()
		seen := map[int]bool{}
		for i := 0; i < l.Lines(); i++ {
			p := l.Map(i)
			if p == l.GapSlot() {
				t.Fatalf("Map(%d) = gap slot %d", i, p)
			}
			if p < 0 || p >= l.Slots() {
				t.Fatalf("Map(%d) = %d out of range", i, p)
			}
			if seen[p] {
				t.Fatalf("Map not injective at slot %d", p)
			}
			seen[p] = true
		}
	}
	check()
	// Drive several full rotations.
	for w := 0; w < 3*18*3+5; w++ {
		l.OnWrite()
		check()
	}
	if l.Rotations == 0 {
		t.Fatal("expected at least one completed rotation step")
	}
}

func TestGapWalksAndWraps(t *testing.T) {
	l := mustNew(t, 4, 1)              // every write moves the gap
	wantGap := []int{3, 2, 1, 0, 4, 3} // walks down, wraps to n
	for i, want := range wantGap {
		l.OnWrite()
		if l.GapSlot() != want {
			t.Fatalf("after %d writes gap = %d, want %d", i+1, l.GapSlot(), want)
		}
	}
}

func TestMoveDescribesCopy(t *testing.T) {
	l := mustNew(t, 4, 1)
	mv, ok := l.OnWrite()
	if !ok {
		t.Fatal("psi=1 must move on first write")
	}
	// First movement: line in slot 3 moves into the spare slot 4.
	if mv.From != 3 || mv.To != 4 {
		t.Fatalf("move = %+v, want {3 4}", mv)
	}
	// Walking down and the wrap step all copy.
	for i := 0; i < 3; i++ {
		if _, ok := l.OnWrite(); !ok {
			t.Fatal("expected moves while walking down")
		}
	}
	mv, ok = l.OnWrite() // gap was 0: wraps to slot 4, copying 4 -> 0
	if !ok || mv.From != 4 || mv.To != 0 {
		t.Fatalf("wrap move = %+v ok=%v, want {4 0} true", mv, ok)
	}
}

func TestRotationSpreadsHotLine(t *testing.T) {
	// Writing one hot logical line forever must visit every physical slot:
	// the whole point of wear leveling.
	l := mustNew(t, 8, 2)
	visited := map[int]bool{}
	for w := 0; w < 8*9*2*4; w++ {
		visited[l.Map(3)] = true
		l.OnWrite()
	}
	if len(visited) != l.Slots() {
		t.Fatalf("hot line visited %d of %d slots", len(visited), l.Slots())
	}
}

func TestMapPanicsOutOfRange(t *testing.T) {
	l := mustNew(t, 8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Map(8)
}

func TestMapPropertyRandomDrive(t *testing.T) {
	if err := quick.Check(func(nRaw, psiRaw, writes uint8) bool {
		n := int(nRaw%60) + 2
		psi := int(psiRaw%9) + 1
		l, err := New(n, psi)
		if err != nil {
			return false
		}
		for w := 0; w < int(writes); w++ {
			l.OnWrite()
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			p := l.Map(i)
			if p == l.GapSlot() || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- intra-row variant ---

func TestIntraRowValidation(t *testing.T) {
	if _, err := NewIntraRow(0); err == nil {
		t.Fatal("zero psi must be rejected")
	}
}

func TestIntraRowStaysInRow(t *testing.T) {
	w, err := NewIntraRow(3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pcm.NewDevice(pcm.Config{Pages: 64, FillSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive writes and check every mapping stays within the row (same
	// bank, same row) — the WD-safety property.
	for i := 0; i < 2000; i++ {
		a := pcm.LineOf(pcm.PageAddr(i%48), i%w.UsableSlots())
		phys := w.MapAddr(a)
		lLoc, pLoc := pcm.DefaultGeometry.Locate(a), pcm.DefaultGeometry.Locate(phys)
		if lLoc.Bank != pLoc.Bank || lLoc.Row != pLoc.Row {
			t.Fatalf("remap crossed row boundary: %+v -> %+v", lLoc, pLoc)
		}
		w.OnWrite(dev, a)
	}
	if w.Moves == 0 {
		t.Fatal("no gap movements happened")
	}
}

func TestIntraRowPreservesData(t *testing.T) {
	// Write through the mapping, rotate a lot, read through the mapping:
	// logical content must survive the physical copies.
	w, err := NewIntraRow(2)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pcm.NewDevice(pcm.Config{Pages: 16, ZeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	logical := pcm.LineOf(5, 7)
	var data pcm.Line
	data[0] = 0xfeedface

	writeThrough := func(d pcm.Line) {
		dev.Write(w.MapAddr(logical), d, pcm.NormalWrite)
		w.OnWrite(dev, logical)
	}
	readThrough := func() pcm.Line { return dev.Peek(w.MapAddr(logical)) }

	writeThrough(data)
	// Rotate the row with writes to other lines of the same row.
	for i := 0; i < 500; i++ {
		other := pcm.LineOf(5, i%w.UsableSlots())
		if other == logical {
			continue
		}
		dev.Write(w.MapAddr(other), pcm.Line{}, pcm.NormalWrite)
		w.OnWrite(dev, other)
	}
	if got := readThrough(); got != data {
		t.Fatalf("data lost across rotation: %v", got[0])
	}
}

func TestIntraRowDeterministic(t *testing.T) {
	run := func() uint64 {
		w, _ := NewIntraRow(3)
		dev, _ := pcm.NewDevice(pcm.Config{Pages: 32, FillSeed: 2})
		for i := 0; i < 1000; i++ {
			a := pcm.LineOf(pcm.PageAddr(i%32), (i*7)%w.UsableSlots())
			dev.Write(w.MapAddr(a), pcm.Line{uint64(i)}, pcm.NormalWrite)
			w.OnWrite(dev, a)
		}
		return w.Moves
	}
	if run() != run() {
		t.Fatal("intra-row leveling must be deterministic")
	}
}

func TestUsableSlots(t *testing.T) {
	w, _ := NewIntraRow(3)
	if w.UsableSlots() != 63 {
		t.Fatalf("usable slots = %d, want 63 (one spare per row)", w.UsableSlots())
	}
}
