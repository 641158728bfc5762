package ecp

import (
	"math"
	"testing"
	"testing/quick"

	"sdpcm/internal/pcm"
)

// mustNew returns an ECP-n table bound to a small zero-filled device of
// 1024 lines.
func mustNew(t *testing.T, n int) *Table {
	t.Helper()
	tab, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pcm.NewDevice(pcm.Config{Pages: 16, ZeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	tab.Bind(dev)
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("negative N must be rejected")
	}
	if tab := mustNew(t, 0); tab.N != 0 {
		t.Fatal("ECP-0 must be constructible (baseline VnC)")
	}
}

func TestRecordWithinCapacity(t *testing.T) {
	tab := mustNew(t, 6)
	if !tab.RecordWD(1, []int{3, 100, 511}) {
		t.Fatal("3 errors must fit in ECP-6")
	}
	if tab.Recorded(1) != 3 || tab.Free(1) != 3 {
		t.Fatalf("recorded=%d free=%d", tab.Recorded(1), tab.Free(1))
	}
	if got := tab.WDBits(1); len(got) != 3 || got[0] != 3 || got[1] != 100 || got[2] != 511 {
		t.Fatalf("WDBits = %v", got)
	}
}

func TestOverflowIsAllOrNothing(t *testing.T) {
	tab := mustNew(t, 4)
	if !tab.RecordWD(1, []int{1, 2, 3}) {
		t.Fatal("3 must fit in ECP-4")
	}
	// 2 more would make 5 > 4: reject and record nothing new.
	if tab.RecordWD(1, []int{10, 11}) {
		t.Fatal("overflow must be reported")
	}
	if tab.Recorded(1) != 3 {
		t.Fatalf("overflow must not partially record; got %d", tab.Recorded(1))
	}
	if tab.Stats.Overflows != 1 {
		t.Fatalf("overflow stat = %d", tab.Stats.Overflows)
	}
}

func TestECP0AlwaysOverflows(t *testing.T) {
	tab := mustNew(t, 0)
	if tab.RecordWD(1, []int{0}) {
		t.Fatal("ECP-0 must reject every record")
	}
	if tab.RecordWD(2, nil) != true {
		t.Fatal("empty record must succeed even on ECP-0")
	}
}

func TestDuplicateDetectionsAreFree(t *testing.T) {
	tab := mustNew(t, 2)
	if !tab.RecordWD(1, []int{5, 6}) {
		t.Fatal("fill ECP-2")
	}
	// Same cells detected again: covered, must succeed without growth.
	if !tab.RecordWD(1, []int{5, 6}) {
		t.Fatal("already-recorded cells must not overflow")
	}
	if tab.Recorded(1) != 2 {
		t.Fatalf("recorded = %d", tab.Recorded(1))
	}
	if tab.Stats.WDDuplicates != 2 {
		t.Fatalf("duplicates = %d", tab.Stats.WDDuplicates)
	}
	// Duplicates within one batch also dedupe.
	tab2 := mustNew(t, 1)
	if !tab2.RecordWD(1, []int{7, 7, 7}) {
		t.Fatal("intra-batch duplicates must collapse to one entry")
	}
	if tab2.Recorded(1) != 1 {
		t.Fatalf("recorded = %d", tab2.Recorded(1))
	}
}

func TestHardErrorsHavePriority(t *testing.T) {
	tab := mustNew(t, 6)
	tab.SetHardErrors(1, 4)
	if tab.Free(1) != 2 {
		t.Fatalf("free = %d, want 2", tab.Free(1))
	}
	if !tab.RecordWD(1, []int{1, 2}) {
		t.Fatal("2 WD errors must fit beside 4 hard errors")
	}
	if tab.RecordWD(1, []int{3}) {
		t.Fatal("5th error must overflow ECP-6 with 4 hard")
	}
	// Raising hard errors evicts WD entries beyond the new capacity.
	tab.SetHardErrors(1, 5)
	if tab.Recorded(1) != 6 || len(tab.WDBits(1)) != 1 {
		t.Fatalf("recorded=%d wd=%v", tab.Recorded(1), tab.WDBits(1))
	}
	// Clamping.
	tab.SetHardErrors(1, 99)
	if tab.HardErrors(1) != 6 || len(tab.WDBits(1)) != 0 {
		t.Fatalf("hard=%d wd=%v", tab.HardErrors(1), tab.WDBits(1))
	}
	tab.SetHardErrors(1, -3)
	if tab.HardErrors(1) != 0 {
		t.Fatal("negative hard errors must clamp to 0")
	}
}

func TestClearWD(t *testing.T) {
	tab := mustNew(t, 6)
	tab.SetHardErrors(1, 2)
	tab.RecordWD(1, []int{9, 10, 11})
	if n := tab.ClearWD(1, false); n != 3 {
		t.Fatalf("cleared %d, want 3", n)
	}
	if tab.Recorded(1) != 2 {
		t.Fatal("hard errors must survive ClearWD")
	}
	if tab.Stats.ClearedByWrite != 3 || tab.Stats.ClearedByCorrect != 0 {
		t.Fatalf("stats = %+v", tab.Stats)
	}
	tab.RecordWD(1, []int{4})
	tab.ClearWD(1, true)
	if tab.Stats.ClearedByCorrect != 1 {
		t.Fatalf("stats = %+v", tab.Stats)
	}
	if tab.ClearWD(99, false) != 0 {
		t.Fatal("clearing an untouched line must be a no-op")
	}
}

func TestCorrectionMaskAndCorrectRead(t *testing.T) {
	tab := mustNew(t, 6)
	tab.RecordWD(1, []int{0, 64, 300})
	m := tab.CorrectionMask(1)
	if m.PopCount() != 3 || m.Bit(0) != 1 || m.Bit(64) != 1 || m.Bit(300) != 1 {
		t.Fatalf("mask = %v", m.Bits())
	}
	var raw pcm.Line
	raw.SetBit(0, 1)   // disturbed cell reads 1
	raw.SetBit(64, 1)  // disturbed
	raw.SetBit(200, 1) // legitimately crystalline
	fixed := tab.CorrectRead(1, raw)
	if fixed.Bit(0) != 0 || fixed.Bit(64) != 0 || fixed.Bit(300) != 0 {
		t.Fatal("recorded cells must read as 0")
	}
	if fixed.Bit(200) != 1 {
		t.Fatal("unrecorded cells must pass through")
	}
	// Lines without entries pass through untouched.
	if tab.CorrectRead(2, raw) != raw {
		t.Fatal("untracked line must be unmodified")
	}
}

func TestECPWearAccounting(t *testing.T) {
	tab := mustNew(t, 6)
	tab.RecordWD(1, []int{1, 2})
	// 2 entries x 10 bits each (§6.7: 9-bit address + 1-bit value).
	if tab.Stats.ECPBitWrites != 2*BitsPerEntry {
		t.Fatalf("ECP bit writes = %d, want %d", tab.Stats.ECPBitWrites, 2*BitsPerEntry)
	}
	tab.ClearWD(1, false)
	// Invalidation writes one bit per entry.
	if tab.Stats.ECPBitWrites != 2*BitsPerEntry+2 {
		t.Fatalf("ECP bit writes after clear = %d", tab.Stats.ECPBitWrites)
	}
}

func TestRecordWDOutOfRangePanics(t *testing.T) {
	tab := mustNew(t, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range cell")
		}
	}()
	tab.RecordWD(1, []int{pcm.LineBits})
}

func TestInvariantRecordedNeverExceedsN(t *testing.T) {
	// Property: under arbitrary interleavings of record/clear/set-hard, the
	// occupied entry count never exceeds N and Free is its complement.
	tab := mustNew(t, 4)
	if err := quick.Check(func(ops []uint16) bool {
		for _, op := range ops {
			a := pcm.LineAddr(op % 8)
			switch (op / 8) % 3 {
			case 0:
				tab.RecordWD(a, []int{int(op % 512), int((op * 7) % 512)})
			case 1:
				tab.ClearWD(a, op%2 == 0)
			case 2:
				tab.SetHardErrors(a, int(op%6))
			}
			if tab.Recorded(a) > tab.N || tab.Free(a) != tab.N-tab.Recorded(a) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWDBitsNoDuplicates(t *testing.T) {
	tab := mustNew(t, 16)
	tab.RecordWD(1, []int{1, 2, 3})
	tab.RecordWD(1, []int{2, 3, 4})
	bits := tab.WDBits(1)
	seen := map[int]bool{}
	for _, b := range bits {
		if seen[b] {
			t.Fatalf("duplicate recorded bit %d in %v", b, bits)
		}
		seen[b] = true
	}
	if len(bits) != 4 {
		t.Fatalf("WDBits = %v, want 4 distinct", bits)
	}
}

// agedLine returns the first line at or after from whose hard-error count
// under the table's lifetime is exactly k.
func agedLine(t *testing.T, tab *Table, from pcm.LineAddr, k int) pcm.LineAddr {
	t.Helper()
	for a := from; a < from+1<<16; a++ {
		if tab.age.hardErrors(a) == k {
			return a
		}
	}
	t.Fatalf("no line with %d hard errors", k)
	return 0
}

func TestLifetimeLazyPopulation(t *testing.T) {
	tab := mustNew(t, 6)
	tab.SetLifetime(1)
	four := agedLine(t, tab, 0, 4)
	if got := tab.HardErrors(four); got != 4 {
		t.Fatalf("hard errors = %d, want 4", got)
	}
	// Capped at N.
	small := mustNew(t, 2)
	small.SetLifetime(1)
	if got := small.HardErrors(four); got != 2 {
		t.Fatalf("hard errors = %d, want the cap 2", got)
	}
	// Recorded reflects lazily populated hard errors.
	if tab.Recorded(four) != 4 || tab.Free(four) != 2 {
		t.Fatalf("recorded=%d free=%d", tab.Recorded(four), tab.Free(four))
	}
	// Records beyond free entries overflow.
	if tab.RecordWD(four, []int{1, 2, 3}) {
		t.Fatal("3 WD errors must not fit beside 4 hard errors in ECP-6")
	}
}

// TestAgingModel checks the hard-error draw: a pristine DIMM (or a negative
// or NaN lifetime) has none, and the per-line mean tracks
// EndOfLifeMeanHardErrors × lifetime. The Figure 14 golden table pins the
// draw itself.
func TestAgingModel(t *testing.T) {
	const lines = 1 << 16
	for _, f := range []float64{0, -1, math.NaN()} {
		g := newAging(f)
		for a := range pcm.LineAddr(lines) {
			if n := g.hardErrors(a); n != 0 {
				t.Fatalf("lifetime %g: line %d has %d hard errors, want 0", f, a, n)
			}
		}
	}
	for _, f := range []float64{0.2, 0.6, 1} {
		g := newAging(f)
		sum := 0
		for a := range pcm.LineAddr(lines) {
			sum += g.hardErrors(a)
		}
		want := EndOfLifeMeanHardErrors * f
		if mean := float64(sum) / lines; math.Abs(mean-want) > 0.02 {
			t.Errorf("lifetime %g: mean hard errors %.4f, want %.4f", f, mean, want)
		}
	}
}
