// Package metrics is the simulator's observability layer: a zero-dependency
// registry of the hot-path instruments — fixed-bucket histograms and an
// optional bounded ring-buffer event trace (trace.go) — plus the Snapshot
// that exports a run. Counters are not registry instruments: each
// component keeps them as uint64 fields of its Stats type and lists them
// once as Field rows (field.go), which fold, render into a Snapshot and
// checkpoint.
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Instruments are registered once at
//     construction time; Observe and Emit mutate plain fields and never
//     allocate. One simulation run is single-goroutine deterministic, so no
//     locks or atomics are needed (a Registry must not be shared across
//     concurrently executing runs).
//   - Free when disabled. Every instrument method is nil-safe: a nil
//     *Registry hands out nil instrument handles, and calling a method on a
//     nil handle is a no-op. Uninstrumented components therefore pay one
//     nil-check branch per call site and nothing else — the overhead budget
//     is <2% on the simulator's hot paths (BenchmarkMetricsOverhead).
//   - Deterministic snapshots. A Snapshot orders every series by name, so
//     two runs with the same config and seed export byte-identical JSON —
//     snapshots double as regression fixtures.
package metrics

import "sort"

// Histogram is a fixed-bucket uint64 distribution. A histogram with bounds
// [b0, b1, ... bn] has n+2 buckets: v <= b0, b0 < v <= b1, ..., v > bn.
type Histogram struct {
	bounds []uint64
	counts []uint64
	sum    uint64
	n      uint64
}

// Observe records one sample; no-op on a nil handle.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of samples observed (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observed samples (0 for a nil handle).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed samples,
// interpolating linearly inside the containing bucket. Samples landing in
// the unbounded overflow bucket are attributed to the top bound, so
// quantiles saturate there (the Prometheus histogram_quantile convention).
// Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantile(h.bounds, h.counts, h.n, q)
}

// quantile is the shared bucket-walking estimator behind Histogram.Quantile
// and HistogramPoint.Quantile.
func quantile(bounds, counts []uint64, n uint64, q float64) float64 {
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper edge to interpolate toward.
			return float64(bounds[len(bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		hi := float64(bounds[i])
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return float64(bounds[len(bounds)-1])
}

// Registry owns the instruments of one simulation run. The zero value is not
// usable; construct with New. A nil *Registry is the disabled form: every
// lookup returns a nil handle and Snapshot returns nil.
type Registry struct {
	hists map[string]*Histogram
	trace *Trace
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use; later calls ignore bounds. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		bs := make([]uint64, len(bounds))
		copy(bs, bounds)
		h = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// EnableTrace attaches a bounded event ring buffer keeping the last cap
// events. Returns the trace (nil on a nil registry or cap <= 0).
func (r *Registry) EnableTrace(cap int) *Trace {
	if r == nil || cap <= 0 {
		return nil
	}
	if r.trace == nil {
		r.trace = newTrace(cap)
	}
	return r.trace
}

// Trace returns the attached event trace, or nil when tracing is disabled.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Snapshot exports the registry's current state with stable (name-sorted)
// ordering. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	for name, h := range r.hists {
		hp := HistogramPoint{
			Name:   name,
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
		s.Histograms = append(s.Histograms, hp)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	if r.trace != nil {
		s.Events = r.trace.Events()
		s.EventsDropped = r.trace.Dropped()
	}
	return s
}
