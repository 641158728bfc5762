package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CounterPoint is one exported counter.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one exported gauge.
type GaugePoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramPoint is one exported histogram: len(Counts) == len(Bounds)+1,
// with Counts[i] the samples in (Bounds[i-1], Bounds[i]] and the last bucket
// holding samples above the top bound.
type HistogramPoint struct {
	Name   string   `json:"name"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Mean returns the average observed sample (0 when empty).
func (h HistogramPoint) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile of the exported distribution with
// linear interpolation inside buckets; see Histogram.Quantile for the
// overflow-bucket convention.
func (h HistogramPoint) Quantile(q float64) float64 {
	return quantile(h.Bounds, h.Counts, h.Count, q)
}

// Snapshot is a run's metrics export: the registry's histograms and event
// tail plus the counters and gauges rendered from component stats. Every
// slice is sorted by name, so equal states marshal to byte-identical JSON
// and snapshots serve as regression fixtures. The zero value is a valid
// empty snapshot; a nil *Snapshot (metrics disabled) is handled by every
// method.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	// Events is the tail of the event trace, when enabled.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts trace events overwritten by the ring buffer.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// Counter returns the named counter's value (0 when absent or nil snapshot).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value (0 when absent or nil snapshot).
func (s *Snapshot) Gauge(name string) uint64 {
	if s == nil {
		return 0
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram point and whether it exists.
func (s *Snapshot) Histogram(name string) (HistogramPoint, bool) {
	if s == nil {
		return HistogramPoint{}, false
	}
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Equal reports whether two snapshots export identical state (events
// included). Nil snapshots are equal only to nil/empty snapshots.
func (s *Snapshot) Equal(o *Snapshot) bool {
	a, errA := json.Marshal(s)
	b, errB := json.Marshal(o)
	return errA == nil && errB == nil && string(a) == string(b)
}

// WriteJSON writes the snapshot as indented JSON. A nil snapshot writes
// "null".
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable writes a fixed-width human-readable rendition: counters and
// gauges as name/value rows, histograms with per-bucket counts, then the
// event tail.
func (s *Snapshot) WriteTable(w io.Writer) error {
	if s == nil {
		_, err := fmt.Fprintln(w, "(metrics disabled)")
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%-40s n=%d sum=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
			h.Name, h.Count, h.Sum, h.Mean(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)); err != nil {
			return err
		}
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			label := "+Inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "  le %-10s %d\n", label, n); err != nil {
				return err
			}
		}
	}
	if len(s.Events) > 0 {
		if _, err := fmt.Fprintf(w, "events (%d buffered, %d dropped)\n", len(s.Events), s.EventsDropped); err != nil {
			return err
		}
		for _, e := range s.Events {
			if _, err := fmt.Fprintf(w, "  #%-8d t=%-12d %s\n", e.Seq, e.Time, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Merge folds another snapshot into an aggregate: counters and histogram
// buckets sum; gauges keep the maximum; events are dropped (an aggregate has
// no single timeline). All three operations are commutative and
// associative, so a merge over a set of snapshots is deterministic
// regardless of arrival order. Histograms with mismatched bounds keep the
// receiver's bounds and sum only total count/sum.
func (s *Snapshot) Merge(o *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	if o == nil {
		return s
	}
	s.Counters = mergeNamed(s.Counters, o.Counters,
		func(p CounterPoint) string { return p.Name },
		func(a, b CounterPoint) CounterPoint { a.Value += b.Value; return a })
	s.Gauges = mergeNamed(s.Gauges, o.Gauges,
		func(p GaugePoint) string { return p.Name },
		func(a, b GaugePoint) GaugePoint {
			if b.Value > a.Value {
				a.Value = b.Value
			}
			return a
		})
	s.Histograms = mergeNamed(s.Histograms, o.Histograms,
		func(p HistogramPoint) string { return p.Name },
		mergeHistogram)
	s.Events = nil
	s.EventsDropped += o.EventsDropped + uint64(len(o.Events))
	return s
}

func mergeHistogram(a, b HistogramPoint) HistogramPoint {
	a.Sum += b.Sum
	a.Count += b.Count
	if len(a.Bounds) == len(b.Bounds) && len(a.Counts) == len(b.Counts) {
		same := true
		for i := range a.Bounds {
			if a.Bounds[i] != b.Bounds[i] {
				same = false
				break
			}
		}
		if same {
			counts := append([]uint64(nil), a.Counts...)
			for i := range counts {
				counts[i] += b.Counts[i]
			}
			a.Counts = counts
		}
	}
	return a
}

// mergeNamed merges two name-sorted point slices, combining same-name
// entries and keeping the output sorted.
func mergeNamed[T any](a, b []T, name func(T) string, combine func(T, T) T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case name(a[i]) == name(b[j]):
			out = append(out, combine(a[i], b[j]))
			i++
			j++
		case name(a[i]) < name(b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	sort.Slice(out, func(x, y int) bool { return name(out[x]) < name(out[y]) })
	return out
}
