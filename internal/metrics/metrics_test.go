package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	// Every call below must be a safe no-op.
	r.Histogram("x", []uint64{1, 2}).Observe(9)
	r.EnableTrace(16).Emit(0, EvWDInjected, 1, 2, 3)
	r.Trace().Emit(0, EvWDDetected, 1, 2, 3)
	if r.Trace().Len() != 0 || r.Trace().Dropped() != 0 || r.Trace().Events() != nil {
		t.Fatal("nil trace should be empty")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}
	if got := r.Histogram("x", nil).Count(); got != 0 {
		t.Fatalf("nil histogram count = %d", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := New()
	h := r.Histogram("h", []uint64{10, 100})
	// Exactly-on-bound lands in the bound's bucket (le semantics); one past
	// spills to the next; above the top bound lands in the overflow bucket.
	h.Observe(0)
	h.Observe(10)
	h.Observe(11)
	h.Observe(100)
	h.Observe(101)
	h.Observe(1 << 60)
	if got, want := h.Count(), uint64(6); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	s := r.Snapshot()
	hp, ok := s.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if hp.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hp.Counts[i], w, hp.Counts)
		}
	}
}

func TestHistogramNoBounds(t *testing.T) {
	r := New()
	h := r.Histogram("h", nil)
	h.Observe(42)
	hp, _ := r.Snapshot().Histogram("h")
	if len(hp.Counts) != 1 || hp.Counts[0] != 1 {
		t.Fatalf("boundless histogram counts = %v, want [1]", hp.Counts)
	}
	if hp.Mean() != 42 {
		t.Fatalf("mean = %g, want 42", hp.Mean())
	}
}

func TestTraceRingWraps(t *testing.T) {
	r := New()
	tr := r.EnableTrace(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(i*100, EvQueueEnqueue, i, 0, 0)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Addr != wantSeq {
			t.Fatalf("event %d = %+v, want seq/addr %d (oldest-first order)", i, e, wantSeq)
		}
	}
}

func TestSnapshotStableOrderAndJSON(t *testing.T) {
	build := func(order []string) *Snapshot {
		r := New()
		for _, n := range order {
			r.Histogram(n, []uint64{1}).Observe(1)
		}
		return r.Snapshot()
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots of same state differ:\n%s\n%s", ja, jb)
	}
	if !a.Equal(b) {
		t.Fatal("Equal() = false for identical state")
	}
	if a.Histograms[0].Name != "a" || a.Histograms[2].Name != "z" {
		t.Fatalf("histograms not name-sorted: %+v", a.Histograms)
	}
}

func TestEventKindJSONNames(t *testing.T) {
	out, err := json.Marshal(EvWDParked)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"wd-parked"` {
		t.Fatalf("kind JSON = %s", out)
	}
	if EventKind(200).String() != "kind-200" {
		t.Fatalf("unknown kind String = %q", EventKind(200).String())
	}
}

func TestSnapshotAccessors(t *testing.T) {
	s := &Snapshot{Counters: []CounterPoint{{Name: "c", Value: 9}}, Gauges: []GaugePoint{{Name: "g", Value: 4}}}
	if s.Counter("c") != 9 || s.Counter("missing") != 0 {
		t.Fatal("counter accessor wrong")
	}
	if s.Gauge("g") != 4 || s.Gauge("missing") != 0 {
		t.Fatal("gauge accessor wrong")
	}
	var nilSnap *Snapshot
	if nilSnap.Counter("c") != 0 || nilSnap.Gauge("g") != 0 {
		t.Fatal("nil snapshot accessors should return 0")
	}
	if _, ok := nilSnap.Histogram("h"); ok {
		t.Fatal("nil snapshot histogram lookup should miss")
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	mk := func(c uint64, g uint64, obs ...uint64) *Snapshot {
		r := New()
		h := r.Histogram("h", []uint64{10, 100})
		for _, v := range obs {
			h.Observe(v)
		}
		r.EnableTrace(2).Emit(0, EvWDInjected, 0, 0, 0)
		s := r.Snapshot()
		s.Counters = []CounterPoint{{Name: "c", Value: c}, {Name: "only-" + string(rune('a'+c)), Value: 1}}
		s.Gauges = []GaugePoint{{Name: "g", Value: g}}
		return s
	}
	a, b := mk(1, 5, 3, 50), mk(2, 9, 200)
	ab := (&Snapshot{}).Merge(a).Merge(b)
	ba := (&Snapshot{}).Merge(b).Merge(a)
	if !ab.Equal(ba) {
		ja, _ := json.Marshal(ab)
		jb, _ := json.Marshal(ba)
		t.Fatalf("merge not commutative:\n%s\n%s", ja, jb)
	}
	if got := ab.Counter("c"); got != 3 {
		t.Fatalf("merged counter = %d, want 3", got)
	}
	if got := ab.Gauge("g"); got != 9 {
		t.Fatalf("merged gauge = %d, want max 9", got)
	}
	hp, _ := ab.Histogram("h")
	if hp.Count != 3 || hp.Sum != 253 {
		t.Fatalf("merged histogram = %+v", hp)
	}
	if len(ab.Events) != 0 || ab.EventsDropped != 2 {
		t.Fatalf("merged events = %d kept / %d dropped, want 0/2", len(ab.Events), ab.EventsDropped)
	}
	// Merging into nil starts a fresh aggregate.
	var nilSnap *Snapshot
	if got := nilSnap.Merge(a).Counter("c"); got != 1 {
		t.Fatalf("nil-receiver merge counter = %d, want 1", got)
	}
}

func TestWriteTable(t *testing.T) {
	r := New()
	r.Histogram("mc.cascade_depth", []uint64{1, 2}).Observe(1)
	r.EnableTrace(4).Emit(10, EvWDFlushed, 3, 2, 1)
	s := r.Snapshot()
	s.Counters = []CounterPoint{{Name: "mc.write_ops", Value: 7}}
	var buf bytes.Buffer
	if err := s.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mc.write_ops", "7", "mc.cascade_depth", "wd-flushed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	var nilSnap *Snapshot
	buf.Reset()
	if err := nilSnap.WriteTable(&buf); err != nil || !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil snapshot table = %q, err %v", buf.String(), err)
	}
}

// TestMergeEventTails: two emitters holding the same Registry.Trace() — as
// a run's controllers and bank engines do — fill one ring in emission order. The tail is
// the last cap events whatever their Time, Seq is contiguous, and Dropped is
// emitted − cap. (The name predates the shared ring; per-emitter tails used
// to be merged after the run.)
func TestMergeEventTails(t *testing.T) {
	const capacity = 4
	r := New()
	r.EnableTrace(capacity)
	a, b := r.Trace(), r.Trace()
	if a != b {
		t.Fatal("Trace() handed out two rings")
	}
	// Bank a's operations are timed ahead of bank b's, so Time falls and
	// rises along the emission order.
	type emit struct {
		tr   *Trace
		time uint64
		addr uint64
	}
	order := []emit{{a, 100, 0}, {b, 10, 1}, {a, 200, 2}, {b, 20, 3}, {b, 30, 4}, {a, 300, 5}, {b, 40, 6}}
	for _, e := range order {
		e.tr.Emit(e.time, EvQueueEnqueue, e.addr, 0, 0)
	}
	s := r.Snapshot()
	if want := uint64(len(order) - capacity); s.EventsDropped != want {
		t.Fatalf("EventsDropped = %d, want %d", s.EventsDropped, want)
	}
	if len(s.Events) != capacity {
		t.Fatalf("kept %d events, want %d", len(s.Events), capacity)
	}
	for i, e := range s.Events {
		k := len(order) - capacity + i
		if e.Seq != uint64(k) || e.Addr != order[k].addr || e.Time != order[k].time {
			t.Fatalf("Events[%d] = %+v, want emission %d (%+v)", i, e, k, order[k])
		}
	}
}
