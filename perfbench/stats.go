package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the input.
func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (the "inclusive" definition). It is NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the percentile ladder a tail figure is chosen from.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// beyond is the number of samples ranked above the p-th percentile of n
// samples: n minus the rank of that percentile, ceil(p/100 * n).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPercentile picks the highest ladder percentile that still has at least
// ten samples beyond it and returns it with its value. ok is false when even
// the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (p, value float64, ok bool) {
	for _, cand := range tailLadder {
		if beyond(len(xs), cand) < 10 {
			break
		}
		p, value, ok = cand, quantile(xs, cand/100), true
	}
	return p, value, ok
}

// tally counts attempted and failed operations of one workload. Every
// operation the benchmark asks of the program is attempted once; a sim.Run
// error, a non-2xx response or a job that ends in another state than done
// counts as failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

// note records one operation's outcome.
func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// String renders the tally as "failed/attempted".
func (t *tally) String() string { return fmt.Sprintf("%d/%d", t.failed, t.attempted) }
