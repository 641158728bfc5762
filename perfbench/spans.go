package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary: a call the benchmark makes
// into one public function of a layer (Calls == 1), or a tight loop of Calls
// calls into the same function. Spans of one traced run share Run.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// maxLeafSpans bounds the leaf spans kept for the span file. Leaves past the
// bound are still folded into every total; only their raw records are lost.
const maxLeafSpans = 200000

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Spans  int   `json:"spans"`
	Calls  int   `json:"calls"`
	InclNs int64 `json:"incl_ns"`
	SelfNs int64 `json:"self_ns"`
}

// perCall is the mean inclusive time of one call, in ns.
func (t *layerTotal) perCall() float64 {
	if t == nil || t.Calls == 0 {
		return 0
	}
	return float64(t.InclNs) / float64(t.Calls)
}

// Tracer keeps the spans of one traced run in memory until Write.
type Tracer struct {
	run    string
	epoch  time.Time
	spans  []Span
	leaves int
	// droppedNs is, per parent id, the time of leaves not kept (so the
	// parent's self time still excludes it); dropped totals them per name.
	droppedNs map[int]int64
	dropped   map[string]*layerTotal
}

// NewTracer starts a tracer whose spans carry the run id.
func NewTracer(run string) *Tracer {
	return &Tracer{
		run:       run,
		epoch:     time.Now(),
		droppedNs: make(map[int]int64),
		dropped:   make(map[string]*layerTotal),
	}
}

// Now is the tracer clock: ns since its epoch (monotonic).
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.Now()})
	return id
}

// End closes span id, which covered calls calls.
func (t *Tracer) End(id, calls int) {
	s := &t.spans[id-1]
	s.End = t.Now()
	s.Calls = calls
}

// Leaf records a finished span without children, timed by the caller with
// Now.
func (t *Tracer) Leaf(name string, parent int, start, end int64, calls int) {
	if t.leaves < maxLeafSpans {
		t.leaves++
		t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
			Name: name, Start: start, End: end, Calls: calls})
		return
	}
	d := end - start
	t.droppedNs[parent] += d
	lt := t.dropped[name]
	if lt == nil {
		lt = &layerTotal{}
		t.dropped[name] = lt
	}
	lt.Spans++
	lt.Calls += calls
	lt.InclNs += d
	lt.SelfNs += d
}

// clockNs is the mean length of an empty span timed with Now: the clock's
// own share of every span that times a single call.
func (t *Tracer) clockNs() float64 {
	const n = 1 << 16
	var sum int64
	for i := 0; i < n; i++ {
		t0 := t.Now()
		sum += t.Now() - t0
	}
	return float64(sum) / n
}

// Span returns a recorded span by id.
func (t *Tracer) Span(id int) Span { return t.spans[id-1] }

// Totals folds every span into per-name totals. Self time is a span's
// duration minus the part of it its children cover.
func (t *Tracer) Totals() map[string]*layerTotal {
	self := selfTimes(t.spans)
	out := make(map[string]*layerTotal)
	get := func(name string) *layerTotal {
		lt := out[name]
		if lt == nil {
			lt = &layerTotal{}
			out[name] = lt
		}
		return lt
	}
	for _, s := range t.spans {
		lt := get(s.Name)
		lt.Spans++
		lt.Calls += s.Calls
		lt.InclNs += s.dur()
		lt.SelfNs += self[s.ID] - t.droppedNs[s.ID]
	}
	for name, d := range t.dropped {
		lt := get(name)
		lt.Spans += d.Spans
		lt.Calls += d.Calls
		lt.InclNs += d.InclNs
		lt.SelfNs += d.SelfNs
	}
	return out
}

// selfTimes maps each span id to its duration minus coverage(span, children).
func selfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - coverage(s, kids[s.ID])
	}
	return out
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's interval: overlapping children count once.
func coverage(p Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// Write stores the kept spans as gzip-compressed JSON lines, after a header
// line carrying the host stamp.
func (t *Tracer) Write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
