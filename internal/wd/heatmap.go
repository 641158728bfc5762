package wd

import (
	"sdpcm/internal/pcm"
)

// HeatCell is one bank × line-region bucket of the WD spatial heatmap.
type HeatCell struct {
	// Injected counts persistent bit-line flips applied to lines of this
	// region (the EvWDInjected quantity).
	Injected uint64 `json:"injected"`
	// Parked counts disturbed cells absorbed by LazyCorrection into free
	// ECP entries of lines in this region.
	Parked uint64 `json:"parked"`
	// Flushed counts disturbed cells RESET by correction writes here.
	Flushed uint64 `json:"flushed"`
	// CascadeSum / CascadeMax record the cascade depth of correction writes
	// landing in this region (sum over corrections, and the worst seen).
	CascadeSum uint64 `json:"cascade_sum"`
	// Corrections counts correction writes in this region (the CascadeSum
	// denominator).
	Corrections uint64 `json:"corrections"`
	CascadeMax  uint64 `json:"cascade_max"`
}

func (c *HeatCell) add(o HeatCell) {
	c.Injected += o.Injected
	c.Parked += o.Parked
	c.Flushed += o.Flushed
	c.CascadeSum += o.CascadeSum
	c.Corrections += o.Corrections
	if o.CascadeMax > c.CascadeMax {
		c.CascadeMax = o.CascadeMax
	}
}

// Heatmap accumulates WD activity per bank × line-region, exposing the
// spatial structure of disturbance that scalar counters flatten: which
// banks absorb the bit-line flips the µTrench model predicts, where
// LazyCorrection parks cluster, and how deep cascades run per region.
//
// A region is a contiguous band of device rows: region = row·R/rowsPerBank,
// so R regions tile each bank's row space evenly. A nil *Heatmap is the
// disabled form — every Record method is a no-op, so instrumented code pays
// one nil check when the heatmap is off.
//
// Like the metrics registry, a Heatmap belongs to one single-goroutine
// simulation run and must not be shared across concurrently executing runs.
type Heatmap struct {
	regions     int
	rowsPerBank int
	banks       int
	geo         pcm.Geometry
	cells       []HeatCell // bank-major: cells[bank*regions+region]
}

// NewHeatmap builds a heatmap with the given regions per bank over the
// default 16-bank DIMM layout. Returns nil (the disabled form) when regions
// or rowsPerBank is not positive.
func NewHeatmap(regions, rowsPerBank int) *Heatmap {
	return NewHeatmapGeo(regions, rowsPerBank, pcm.DefaultGeometry)
}

// NewHeatmapGeo builds a heatmap over an explicit bank layout (per-module
// heatmaps of a multi-module topology).
func NewHeatmapGeo(regions, rowsPerBank int, geo pcm.Geometry) *Heatmap {
	if regions <= 0 || rowsPerBank <= 0 {
		return nil
	}
	if regions > rowsPerBank {
		regions = rowsPerBank
	}
	return &Heatmap{
		regions:     regions,
		rowsPerBank: rowsPerBank,
		banks:       geo.Banks(),
		geo:         geo,
		cells:       make([]HeatCell, geo.Banks()*regions),
	}
}

// cell locates the accumulation bucket for a line address.
func (h *Heatmap) cell(a pcm.LineAddr) *HeatCell {
	loc := h.geo.Locate(a)
	region := loc.Row * h.regions / h.rowsPerBank
	if region >= h.regions { // row beyond the sized device; clamp
		region = h.regions - 1
	}
	return &h.cells[loc.Bank*h.regions+region]
}

// RecordInjected notes n persistent bit-line flips applied to line a.
func (h *Heatmap) RecordInjected(a pcm.LineAddr, n int) {
	if h == nil || n <= 0 {
		return
	}
	h.cell(a).Injected += uint64(n)
}

// RecordParked notes n disturbed cells parked in line a's ECP entries.
func (h *Heatmap) RecordParked(a pcm.LineAddr, n int) {
	if h == nil || n <= 0 {
		return
	}
	h.cell(a).Parked += uint64(n)
}

// RecordCorrection notes a correction write that RESET n disturbed cells of
// line a at the given cascade depth.
func (h *Heatmap) RecordCorrection(a pcm.LineAddr, n, depth int) {
	if h == nil {
		return
	}
	c := h.cell(a)
	c.Flushed += uint64(n)
	c.CascadeSum += uint64(depth)
	c.Corrections++
	if uint64(depth) > c.CascadeMax {
		c.CascadeMax = uint64(depth)
	}
}

// Snapshot exports the heatmap. Returns nil on a nil heatmap.
func (h *Heatmap) Snapshot() *HeatmapSnapshot {
	if h == nil {
		return nil
	}
	s := &HeatmapSnapshot{
		Banks:   h.banks,
		Regions: h.regions,
		Cells:   make([][]HeatCell, h.banks),
	}
	for b := 0; b < h.banks; b++ {
		s.Cells[b] = append([]HeatCell(nil), h.cells[b*h.regions:(b+1)*h.regions]...)
	}
	return s
}

// HeatmapSnapshot is an exported heatmap: Cells[bank][region], both indices
// dense. The zero value is empty; a nil snapshot (heatmap disabled) is
// accepted by Merge and the obs renderers.
type HeatmapSnapshot struct {
	Banks   int          `json:"banks"`
	Regions int          `json:"regions"`
	Cells   [][]HeatCell `json:"cells"`
}

// Merge folds another snapshot into an aggregate, cell by cell. Addition is
// commutative, so a merge over a set of snapshots is deterministic
// regardless of arrival order — the property the sweep aggregate in
// obs.Progress relies on. Merging snapshots of different shapes keeps the receiver
// unchanged (sweeps share one device sizing, so shapes always match there).
func (s *HeatmapSnapshot) Merge(o *HeatmapSnapshot) *HeatmapSnapshot {
	if o == nil {
		return s
	}
	if s == nil {
		s = &HeatmapSnapshot{Banks: o.Banks, Regions: o.Regions}
		for _, row := range o.Cells {
			s.Cells = append(s.Cells, append([]HeatCell(nil), row...))
		}
		return s
	}
	if s.Banks != o.Banks || s.Regions != o.Regions {
		return s
	}
	for b := range s.Cells {
		for r := range s.Cells[b] {
			s.Cells[b][r].add(o.Cells[b][r])
		}
	}
	return s
}

// Total sums a projection over every cell.
func (s *HeatmapSnapshot) Total(f func(HeatCell) uint64) uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for _, row := range s.Cells {
		for _, c := range row {
			t += f(c)
		}
	}
	return t
}
