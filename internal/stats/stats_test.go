package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if Speedup(2, 1) != 2 {
		t.Fatal("halving CPI must double speedup")
	}
	if Speedup(1, 2) != 0.5 {
		t.Fatal("doubling CPI must halve speedup")
	}
	if Speedup(1, 0) != 0 {
		t.Fatal("zero CPI must not divide by zero")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); got != 5 {
		t.Fatalf("GeoMean(5) = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
	// Non-positive inputs ignored.
	if got := GeoMean([]float64{0, -1, 4}); got != 4 {
		t.Fatalf("GeoMean with junk = %v", got)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= gmean <= max for positive inputs.
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), 0.0
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			if xs[i] < lo {
				lo = xs[i]
			}
			if xs[i] > hi {
				hi = xs[i]
			}
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) wrong")
	}
	if Max([]float64{3, 9, 2}) != 9 {
		t.Fatal("Max wrong")
	}
	if Max([]float64{-5, -2}) != -2 {
		t.Fatal("Max of negatives wrong")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Figure X", "a", "b")
	tb.Set("row1", "a", 1.5)
	tb.Set("row1", "b", 2.5)
	tb.Set("row2", "a", 3)
	out := tb.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "row1") || !strings.Contains(out, "row2") {
		t.Fatal("rows missing")
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("cell missing:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatal("unset cell must render as dash")
	}
	if tb.Get("row1", "b") != 2.5 {
		t.Fatal("Get wrong")
	}
	if got := tb.Rows(); len(got) != 2 || got[0] != "row1" {
		t.Fatalf("Rows = %v", got)
	}
	if got := tb.Columns(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("Columns = %v", got)
	}
}

func TestTableGeoMeanRow(t *testing.T) {
	tb := NewTable("t", "x")
	tb.Set("r1", "x", 2)
	tb.Set("r2", "x", 8)
	tb.AddGeoMeanRow()
	if got := tb.Get("gmean", "x"); math.Abs(got-4) > 1e-12 {
		t.Fatalf("gmean cell = %v, want 4", got)
	}
}

func TestCellWidth(t *testing.T) {
	if cellWidth("%10.3f") != 10 {
		t.Fatal("width parse failed")
	}
	if cellWidth("%f") != 10 {
		t.Fatal("fallback width failed")
	}
}
