// Package stats provides the metric arithmetic and table formatting used by
// the experiment harness: CPI/speedup per §5.2, geometric means across the
// multi-programmed workloads, and fixed-width result tables that mirror the
// paper's figure series.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Speedup is the paper's §5.2 metric: CPI_base / CPI_tech. Values above 1
// mean tech is faster than base.
func Speedup(cpiBase, cpiTech float64) float64 {
	if cpiTech <= 0 {
		return 0
	}
	return cpiBase / cpiTech
}

// GeoMean returns the geometric mean of positive values; zero and negative
// inputs are ignored. The figures' "gmean" bar.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	out := 0.0
	for i, x := range xs {
		if i == 0 || x > out {
			out = x
		}
	}
	return out
}

// Table accumulates named rows of named columns and renders a fixed-width
// text table, the harness's output format for every reproduced figure.
type Table struct {
	Title   string
	columns []string
	rows    []string
	cells   map[string]map[string]float64
	format  string
}

// NewTable creates a table with the given column order. format is the
// fmt verb for cells (default "%8.3f").
func NewTable(title string, columns ...string) *Table {
	return &Table{
		Title:   title,
		columns: columns,
		cells:   make(map[string]map[string]float64),
		format:  "%10.3f",
	}
}

// SetFormat overrides the cell format verb.
func (t *Table) SetFormat(f string) { t.format = f }

// Set stores a cell, creating the row on first use (row order = insertion
// order).
func (t *Table) Set(row, col string, v float64) {
	m := t.cells[row]
	if m == nil {
		m = make(map[string]float64)
		t.cells[row] = m
		t.rows = append(t.rows, row)
	}
	m[col] = v
}

// Get returns a cell value (0 if unset).
func (t *Table) Get(row, col string) float64 { return t.cells[row][col] }

// Rows returns the row labels in insertion order.
func (t *Table) Rows() []string { return append([]string(nil), t.rows...) }

// Columns returns the column labels.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// AddGeoMeanRow appends a "gmean" row aggregating all current rows.
func (t *Table) AddGeoMeanRow() {
	vals := make(map[string][]float64)
	for _, r := range t.rows {
		for _, c := range t.columns {
			if v, ok := t.cells[r][c]; ok {
				vals[c] = append(vals[c], v)
			}
		}
	}
	for _, c := range t.columns {
		t.Set("gmean", c, GeoMean(vals[c]))
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	rowW := 10
	for _, r := range t.rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", rowW+2, "")
	for _, c := range t.columns {
		fmt.Fprintf(&b, "%*s", cellWidth(t.format), c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", rowW+2, r)
		for _, c := range t.columns {
			if v, ok := t.cells[r][c]; ok {
				fmt.Fprintf(&b, t.format, v)
			} else {
				fmt.Fprintf(&b, "%*s", cellWidth(t.format), "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cellWidth extracts the width of a simple %N.Mf verb (falls back to 10).
func cellWidth(format string) int {
	w := 0
	for i := 1; i < len(format); i++ {
		ch := format[i]
		if ch >= '0' && ch <= '9' {
			w = w*10 + int(ch-'0')
			continue
		}
		break
	}
	if w == 0 {
		return 10
	}
	return w
}
