package pcm

import (
	"slices"
	"testing"
	"testing/quick"
)

func lineFrom(words [8]uint64) Line { return Line(words) }

func TestBitSetBit(t *testing.T) {
	var l Line
	for _, i := range []int{0, 1, 63, 64, 100, 511} {
		if l.Bit(i) != 0 {
			t.Fatalf("fresh line bit %d != 0", i)
		}
		l.SetBit(i, 1)
		if l.Bit(i) != 1 {
			t.Fatalf("bit %d not set", i)
		}
		l.SetBit(i, 0)
		if l.Bit(i) != 0 {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestDiffMasksProperties(t *testing.T) {
	// For any (old, new): masks are disjoint, reset ⊆ old, set ∩ old = ∅,
	// and applying them to old yields new exactly.
	if err := quick.Check(func(o, n [8]uint64) bool {
		old, new := lineFrom(o), lineFrom(n)
		reset, set := DiffMasks(old, new)
		if reset.And(set).Any() {
			return false
		}
		for i := range old {
			if reset[i]&^old[i] != 0 { // RESET only cells currently 1
				return false
			}
			if set[i]&old[i] != 0 { // SET only cells currently 0
				return false
			}
		}
		return ApplyMasks(old, reset, set) == new
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffMasksIdentity(t *testing.T) {
	if err := quick.Check(func(o [8]uint64) bool {
		old := lineFrom(o)
		reset, set := DiffMasks(old, old)
		return !reset.Any() && !set.Any()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffMasksCountsMatchHamming(t *testing.T) {
	if err := quick.Check(func(o, n [8]uint64) bool {
		old, new := lineFrom(o), lineFrom(n)
		reset, set := DiffMasks(old, new)
		return reset.PopCount()+set.PopCount() == old.Xor(new).PopCount()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskBits(t *testing.T) {
	var m Mask
	want := []int{0, 5, 63, 64, 200, 511}
	for _, b := range want {
		m.SetBit(b)
	}
	got := m.Bits()
	if len(got) != len(want) {
		t.Fatalf("Bits() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	m.ClearBit(5)
	if m.Bit(5) != 0 || m.PopCount() != len(want)-1 {
		t.Fatal("ClearBit failed")
	}
}

// TestAppendBitsMatchesBits: AppendBits (and Bits, built on it) lists the set
// bits in ascending order, checked against a bit-by-bit scan, and keeps the
// prefix it appends to.
func TestAppendBitsMatchesBits(t *testing.T) {
	if err := quick.Check(func(words [LineWords]uint64) bool {
		m := Mask(words)
		var want []int
		for b := 0; b < LineBits; b++ {
			if m.Bit(b) == 1 {
				want = append(want, b)
			}
		}
		if !slices.Equal(m.Bits(), want) {
			return false
		}
		app := m.AppendBits([]int{-1})
		return app[0] == -1 && slices.Equal(app[1:], want)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskSetOps(t *testing.T) {
	if err := quick.Check(func(a, b [8]uint64) bool {
		ma, mb := Mask(a), Mask(b)
		union := ma.Or(mb)
		inter := ma.And(mb)
		diff := ma.AndNot(mb)
		// |A∪B| = |A| + |B| - |A∩B|; A\B = A∩¬B.
		if union.PopCount() != ma.PopCount()+mb.PopCount()-inter.PopCount() {
			return false
		}
		return diff.PopCount() == ma.PopCount()-inter.PopCount()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCycles(t *testing.T) {
	tim := DefaultTiming
	cases := []struct {
		nReset, nSet, want int
	}{
		{0, 0, 400},      // silent write still occupies one RESET slot
		{1, 0, 400},      // one RESET round
		{128, 0, 400},    // exactly one RESET-only round
		{129, 0, 800},    // two RESET-only rounds
		{0, 1, 800},      // one SET round
		{0, 129, 1600},   // two SET rounds
		{50, 60, 800},    // mixed round: SET pulse dominates
		{120, 9, 1600},   // 129 cells, one SET: two SET-paced rounds
		{256, 256, 3200}, // 4 mixed rounds at SET latency
	}
	for _, c := range cases {
		if got := tim.WriteCycles(c.nReset, c.nSet); got != c.want {
			t.Errorf("WriteCycles(%d,%d) = %d, want %d", c.nReset, c.nSet, got, c.want)
		}
	}
}
