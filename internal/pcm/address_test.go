package pcm

import (
	"testing"
	"testing/quick"
)

func TestLocateRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint32) bool {
		a := LineAddr(raw)
		return DefaultGeometry.AddrOf(DefaultGeometry.Locate(a)) == a
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocateLayout(t *testing.T) {
	// Page p -> bank p mod 16, row p div 16 (Figure 6 interleaving).
	a := LineOf(PageAddr(35), 7)
	loc := DefaultGeometry.Locate(a)
	if loc.Bank != 35%NumBanks || loc.Row != 35/NumBanks || loc.Slot != 7 {
		t.Fatalf("Locate = %+v", loc)
	}
}

func TestStripHoldsConsecutivePages(t *testing.T) {
	// One strip = same row index across all 16 banks = 16 consecutive pages.
	row := 5
	banksSeen := map[int]bool{}
	for p := row * NumBanks; p < (row+1)*NumBanks; p++ {
		loc := DefaultGeometry.Locate(LineOf(PageAddr(p), 0))
		if loc.Row != row {
			t.Fatalf("page %d: row %d, want %d", p, loc.Row, row)
		}
		banksSeen[loc.Bank] = true
	}
	if len(banksSeen) != NumBanks {
		t.Fatalf("strip covers %d banks, want %d", len(banksSeen), NumBanks)
	}
}

func TestAdjacentLinesAre16PagesApart(t *testing.T) {
	// §4.3: "an adjacent line is 16 physical frames away from the line to be
	// written".
	const rows = 100
	a := LineOf(PageAddr(100), 13)
	above, below, okA, okB := DefaultGeometry.AdjacentLines(a, rows)
	if !okA || !okB {
		t.Fatal("interior line must have both neighbours")
	}
	if above.Page() != 100-NumBanks || below.Page() != 100+NumBanks {
		t.Fatalf("neighbour pages %d,%d; want %d,%d",
			above.Page(), below.Page(), 100-NumBanks, 100+NumBanks)
	}
	if above.Slot() != 13 || below.Slot() != 13 {
		t.Fatal("neighbours must be at the same slot")
	}
	la, lb := DefaultGeometry.Locate(above), DefaultGeometry.Locate(below)
	orig := DefaultGeometry.Locate(a)
	if la.Bank != orig.Bank || lb.Bank != orig.Bank {
		t.Fatal("neighbours must be in the same bank")
	}
	if la.Row != orig.Row-1 || lb.Row != orig.Row+1 {
		t.Fatalf("neighbour rows %d,%d around %d", la.Row, lb.Row, orig.Row)
	}
}

func TestAdjacentLinesBoundaries(t *testing.T) {
	const rows = 4
	// Row 0: no neighbour above.
	_, below, okA, okB := DefaultGeometry.AdjacentLines(LineOf(PageAddr(3), 0), rows)
	if okA {
		t.Error("row 0 must have no above neighbour")
	}
	if !okB || DefaultGeometry.Locate(below).Row != 1 {
		t.Error("row 0 must have a below neighbour at row 1")
	}
	// Last row: no neighbour below.
	lastRowPage := PageAddr((rows-1)*NumBanks + 2)
	above, _, okA, okB := DefaultGeometry.AdjacentLines(LineOf(lastRowPage, 0), rows)
	if okB {
		t.Error("last row must have no below neighbour")
	}
	if !okA || DefaultGeometry.Locate(above).Row != rows-2 {
		t.Error("last row must have an above neighbour")
	}
	// Single-row bank: fully isolated.
	_, _, okA, okB = DefaultGeometry.AdjacentLines(LineOf(PageAddr(0), 0), 1)
	if okA || okB {
		t.Error("single-row bank must have no neighbours")
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	// If b is a's below neighbour then a is b's above neighbour.
	if err := quick.Check(func(raw uint16, slotRaw uint8) bool {
		const rows = 1 << 12
		a := LineOf(PageAddr(raw), int(slotRaw)%LinesPerPage)
		_, below, _, okB := DefaultGeometry.AdjacentLines(a, rows)
		if !okB {
			return true
		}
		above, _, okA, _ := DefaultGeometry.AdjacentLines(below, rows)
		return okA && above == a
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageAndSlot(t *testing.T) {
	a := LineOf(PageAddr(9), 63)
	if a.Page() != 9 || a.Slot() != 63 {
		t.Fatalf("Page/Slot = %d/%d", a.Page(), a.Slot())
	}
	if row := DefaultGeometry.Locate(LineOf(PageAddr(47), 0)).Row; row != 2 {
		t.Fatalf("page 47 is in strip %d, want 2", row)
	}
}

func TestGeometryConstantsConsistent(t *testing.T) {
	if LinesPerPage*LineBytes != PageBytes {
		t.Error("LinesPerPage inconsistent")
	}
	if BitsPerChipLine*DataChips != LineBits {
		t.Error("chip share inconsistent")
	}
	if CellsPerChipRow*DataChips != PageBytes*8 {
		t.Error("cells per chip row inconsistent")
	}
	if NumBanks != 16 {
		t.Errorf("NumBanks = %d, want 16 (2 ranks x 8 banks)", NumBanks)
	}
}
