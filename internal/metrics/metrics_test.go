package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3 (last write wins)", got)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	// Every call below must be a safe no-op.
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("x").Set(1)
	r.Histogram("x", []uint64{1, 2}).Observe(9)
	r.EnableTrace(16).Emit(0, EvWDInjected, 1, 2, 3)
	r.Trace().Emit(0, EvWDDetected, 1, 2, 3)
	if r.Trace().Len() != 0 || r.Trace().Dropped() != 0 || r.Trace().Events() != nil {
		t.Fatal("nil trace should be empty")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
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
			r.Counter(n).Inc()
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
	if a.Counters[0].Name != "a" || a.Counters[2].Name != "z" {
		t.Fatalf("counters not name-sorted: %+v", a.Counters)
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
	r := New()
	r.Counter("c").Add(9)
	r.Gauge("g").Set(4)
	s := r.Snapshot()
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
		r.Counter("c").Add(c)
		r.Counter("only-" + string(rune('a'+c))).Add(1)
		r.Gauge("g").Set(g)
		h := r.Histogram("h", []uint64{10, 100})
		for _, v := range obs {
			h.Observe(v)
		}
		r.EnableTrace(2).Emit(0, EvWDInjected, 0, 0, 0)
		return r.Snapshot()
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
	r.Counter("mc.write_ops").Add(7)
	r.Histogram("mc.cascade_depth", []uint64{1, 2}).Observe(1)
	r.EnableTrace(4).Emit(10, EvWDFlushed, 3, 2, 1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
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

func TestMergeEventTails(t *testing.T) {
	ev := func(seq, time uint64) Event { return Event{Seq: seq, Time: time, Kind: EvWDInjected} }
	tails := [][]Event{
		{ev(0, 10), ev(1, 30), ev(2, 30)},
		{ev(5, 20), ev(6, 30)},
	}
	merged, dropped := MergeEventTails(4, tails, []uint64{2, 0})
	// total = 3+2+2 dropped = 7; keep last 4; base seq = 3.
	if dropped != 3 || len(merged) != 4 {
		t.Fatalf("dropped=%d len=%d, want 3,4", dropped, len(merged))
	}
	// Sorted by (Time, shard, Seq): t10s0, t20s1, t30s0#1, t30s0#2, t30s1 →
	// tail of 4 drops t10.
	wantTimes := []uint64{20, 30, 30, 30}
	for i, e := range merged {
		if e.Time != wantTimes[i] {
			t.Fatalf("merged[%d].Time = %d, want %d (%+v)", i, e.Time, wantTimes[i], merged)
		}
		if e.Seq != 3+uint64(i) {
			t.Fatalf("merged[%d].Seq = %d, want %d", i, e.Seq, 3+i)
		}
	}
	// Within t=30, shard 0's two events precede shard 1's, in Seq order.
	if merged[1].Seq != 4 { // renumbered; check source order via Time ties already
		t.Fatalf("tie-break renumbering wrong: %+v", merged)
	}

	// A single shard with capacity ≥ total is the identity modulo Seq rebase.
	one, d := MergeEventTails(8, [][]Event{{ev(3, 1), ev(4, 2)}}, []uint64{3})
	if d != 3 || len(one) != 2 || one[0].Time != 1 || one[1].Time != 2 {
		t.Fatalf("single-shard merge wrong: %+v dropped=%d", one, d)
	}

	// Zero capacity disables bounding only when non-positive... capacity<=0
	// keeps everything.
	all, d0 := MergeEventTails(0, tails, nil)
	if d0 != 0 || len(all) != 5 {
		t.Fatalf("unbounded merge: len=%d dropped=%d", len(all), d0)
	}
}
