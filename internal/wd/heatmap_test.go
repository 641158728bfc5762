package wd

import (
	"reflect"
	"testing"

	"sdpcm/internal/pcm"
)

func TestHeatmapNilForms(t *testing.T) {
	if NewHeatmap(0, 64) != nil || NewHeatmap(8, 0) != nil || NewHeatmap(-1, 64) != nil {
		t.Fatal("non-positive shapes must yield the disabled (nil) heatmap")
	}
	var h *Heatmap
	// All recorders must be nil-safe no-ops.
	h.RecordInjected(0, 3)
	h.RecordParked(0, 2)
	h.RecordCorrection(0, 1, 4)
	if h.Snapshot() != nil {
		t.Fatal("nil heatmap must snapshot to nil")
	}
}

func TestHeatmapRegionsClampedToRows(t *testing.T) {
	h := NewHeatmap(1000, 8)
	s := h.Snapshot()
	if s.Regions != 8 {
		t.Fatalf("regions = %d, want clamp to rowsPerBank 8", s.Regions)
	}
}

func TestHeatmapRecordAndSnapshot(t *testing.T) {
	// One region per row keeps the geometry transparent.
	rows := 4
	h := NewHeatmap(rows, rows)
	a := pcm.LineAddr(5)
	loc := pcm.DefaultGeometry.Locate(a)
	h.RecordInjected(a, 3)
	h.RecordParked(a, 2)
	h.RecordCorrection(a, 4, 2)
	h.RecordCorrection(a, 1, 5)
	s := h.Snapshot()
	if s.Banks != pcm.NumBanks || s.Regions != rows {
		t.Fatalf("shape = %dx%d", s.Banks, s.Regions)
	}
	c := s.Cells[loc.Bank][loc.Row] // region == row here
	want := HeatCell{Injected: 3, Parked: 2, Flushed: 5, CascadeSum: 7, Corrections: 2, CascadeMax: 5}
	if c != want {
		t.Fatalf("cell = %+v, want %+v", c, want)
	}
	// Everything else stays zero.
	var total HeatCell
	for _, row := range s.Cells {
		for _, cc := range row {
			total.add(cc)
		}
	}
	if total != want {
		t.Fatalf("stray accumulation: total = %+v", total)
	}
	// Zero and negative counts are ignored.
	h.RecordInjected(a, 0)
	h.RecordParked(a, -1)
	if got := h.Snapshot().Cells[loc.Bank][loc.Row]; got != want {
		t.Fatalf("no-op records changed the cell: %+v", got)
	}
}

func TestHeatmapSnapshotIsACopy(t *testing.T) {
	h := NewHeatmap(2, 64)
	h.RecordInjected(0, 1)
	s := h.Snapshot()
	h.RecordInjected(0, 100)
	if s.Total(func(c HeatCell) uint64 { return c.Injected }) != 1 {
		t.Fatal("snapshot aliased live heatmap storage")
	}
}

func TestHeatmapMerge(t *testing.T) {
	mk := func(addr pcm.LineAddr, n int) *HeatmapSnapshot {
		h := NewHeatmap(4, 64)
		h.RecordInjected(addr, n)
		h.RecordCorrection(addr, n, n)
		return h.Snapshot()
	}
	a, b := mk(3, 2), mk(77, 5)
	// Merge is commutative, so both orders agree.
	ab := mk(3, 2).Merge(b)
	ba := mk(77, 5).Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative:\n%+v\n%+v", ab, ba)
	}
	if got := ab.Total(func(c HeatCell) uint64 { return c.Injected }); got != 7 {
		t.Fatalf("merged injected = %d, want 7", got)
	}
	if got := ab.Total(func(c HeatCell) uint64 { return c.CascadeMax }); got < 5 {
		t.Fatalf("merged cascade max lost the larger value: %d", got)
	}

	// Nil handling: nil receiver adopts a deep copy; nil argument is a no-op.
	var nilSnap *HeatmapSnapshot
	adopted := nilSnap.Merge(a)
	if !reflect.DeepEqual(adopted, a) {
		t.Fatal("nil.Merge(a) must equal a")
	}
	adopted.Cells[0][0].Injected += 9
	if reflect.DeepEqual(adopted, a) {
		t.Fatal("nil.Merge(a) aliased a's cells")
	}
	if got := a.Merge(nil); got != a {
		t.Fatal("a.Merge(nil) must return the receiver")
	}

	// Shape mismatch keeps the receiver unchanged.
	other := &HeatmapSnapshot{Banks: 1, Regions: 1, Cells: [][]HeatCell{{{Injected: 99}}}}
	before := a.Total(func(c HeatCell) uint64 { return c.Injected })
	if after := a.Merge(other).Total(func(c HeatCell) uint64 { return c.Injected }); after != before {
		t.Fatalf("shape-mismatched merge changed the receiver: %d -> %d", before, after)
	}
}
