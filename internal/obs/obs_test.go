package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdpcm/internal/metrics"
	"sdpcm/internal/runner"
	"sdpcm/internal/wd"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	s, ts := testServer(t)

	r := metrics.New()
	tr := r.EnableTrace(8)
	tr.Emit(100, metrics.EvWDParked, 93, 2, 4)
	tr.Emit(200, metrics.EvWDFlushed, 93, 2, 1)
	snapshot := r.Snapshot()
	snapshot.Counters = []metrics.CounterPoint{{Name: "mc.write_ops", Value: 7}}
	s.SetSnapshot(snapshot)
	s.Progress().Begin("fig11")
	s.Progress().PointDone(runner.PointEvent{Total: 4})

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics -> %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "sdpcm_mc_write_ops_total 7") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	code, body, hdr = get(t, ts.URL+"/progress")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/progress -> %d %q", code, hdr.Get("Content-Type"))
	}
	var ps ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if ps.PointsDone != 1 || len(ps.Experiments) != 1 || ps.Experiments[0].Name != "fig11" {
		t.Fatalf("/progress = %+v", ps)
	}

	code, body, _ = get(t, ts.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events -> %d", code)
	}
	var ep EventsPayload
	if err := json.Unmarshal([]byte(body), &ep); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if len(ep.Events) != 2 || ep.Dropped != 0 || ep.Truncated != 0 {
		t.Fatalf("/events = %+v, want 2 events, 0 dropped, 0 truncated", ep)
	}

	// ?n= keeps the newest tail; the trim is client-requested truncation,
	// never ring overflow, and the two counts stay separate.
	code, body, _ = get(t, ts.URL+"/events?n=1")
	if code != http.StatusOK {
		t.Fatalf("/events?n=1 -> %d", code)
	}
	if err := json.Unmarshal([]byte(body), &ep); err != nil {
		t.Fatal(err)
	}
	if len(ep.Events) != 1 || ep.Events[0].Kind != metrics.EvWDFlushed {
		t.Fatalf("/events?n=1 = %+v", ep)
	}
	if ep.Dropped != 0 || ep.Truncated != 1 {
		t.Fatalf("/events?n=1 dropped=%d truncated=%d, want 0 and 1", ep.Dropped, ep.Truncated)
	}

	if code, _, _ := get(t, ts.URL+"/events?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/events?n=bogus -> %d, want 400", code)
	}
	if code, _, _ := get(t, ts.URL+"/"); code != http.StatusOK {
		t.Fatalf("/ -> %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope -> %d, want 404", code)
	}
	if code, _, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline -> %d", code)
	}
}

func TestServerBeforeFirstSnapshot(t *testing.T) {
	_, ts := testServer(t)
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("empty /metrics -> %d %q", code, body)
	}
	code, body, _ = get(t, ts.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("empty /events -> %d", code)
	}
	var ep EventsPayload
	if err := json.Unmarshal([]byte(body), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Events == nil {
		t.Fatal("/events must serve an empty array, not null")
	}
}

// TestServerMetricsFromProgress: until SetSnapshot publishes, /metrics
// serves the Progress tracker's merged aggregate; a published snapshot then
// takes precedence.
func TestServerMetricsFromProgress(t *testing.T) {
	s, ts := testServer(t)
	s.Progress().PointDone(pointWith(3, 0))
	s.Progress().PointDone(pointWith(4, 0))
	if _, body, _ := get(t, ts.URL+"/metrics"); !strings.Contains(body, "sdpcm_mc_write_ops_total 7") {
		t.Fatalf("/metrics before SetSnapshot lacks the merged counter:\n%s", body)
	}
	s.SetSnapshot(&metrics.Snapshot{Counters: []metrics.CounterPoint{{Name: "mc.write_ops", Value: 42}}})
	if _, body, _ := get(t, ts.URL+"/metrics"); !strings.Contains(body, "sdpcm_mc_write_ops_total 42") {
		t.Fatalf("/metrics after SetSnapshot lacks the published counter:\n%s", body)
	}
}

// TestMetricsScrapeDuringMerge scrapes /metrics and /events while points
// merge into the aggregate; run under -race it checks the copies readers
// get never share memory the merge writes.
func TestMetricsScrapeDuringMerge(t *testing.T) {
	s, ts := testServer(t)
	const points = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < points; i++ {
			s.Progress().PointDone(pointWith(1, 1))
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		for _, path := range []string{"/metrics", "/events"} {
			if code, _, _ := get(t, ts.URL+path); code != http.StatusOK {
				t.Fatalf("%s -> %d mid-merge", path, code)
			}
		}
		if h := s.Progress().Heatmap(); h != nil {
			_ = h.Total(func(c wd.HeatCell) uint64 { return c.Injected })
		}
	}
	if _, body, _ := get(t, ts.URL+"/metrics"); !strings.Contains(body, "sdpcm_mc_write_ops_total 50") {
		t.Fatalf("/metrics after all merges:\n%s", body)
	}
}

// TestRingOverflowStaysDropped: events lost to the bounded ring surface as
// Dropped even when the client also truncates with ?n=.
func TestRingOverflowStaysDropped(t *testing.T) {
	s, ts := testServer(t)
	r := metrics.New()
	tr := r.EnableTrace(2) // capacity 2: the first emit gets overwritten
	tr.Emit(1, metrics.EvWDParked, 1, 0, 0)
	tr.Emit(2, metrics.EvWDParked, 2, 0, 0)
	tr.Emit(3, metrics.EvWDFlushed, 3, 0, 0)
	s.SetSnapshot(r.Snapshot())

	code, body, _ := get(t, ts.URL+"/events?n=1")
	if code != http.StatusOK {
		t.Fatalf("/events?n=1 -> %d", code)
	}
	var ep EventsPayload
	if err := json.Unmarshal([]byte(body), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Dropped != 1 || ep.Truncated != 1 || len(ep.Events) != 1 {
		t.Fatalf("overflow+trim = %+v, want dropped=1 truncated=1 events=1", ep)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := get(t, "http://"+addr+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress over real listener -> %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/progress"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestCloseDrainsInFlightRequest pins the graceful-drain contract: a
// /metrics request already in the handler when Close is called completes
// with its full body instead of being dropped mid-response.
func TestCloseDrainsInFlightRequest(t *testing.T) {
	s := NewServer()
	s.SetSnapshot(&metrics.Snapshot{Counters: []metrics.CounterPoint{{Name: "mc.write_ops", Value: 42}}})

	entered := make(chan struct{})
	release := make(chan struct{})
	s.metricsGate = func() {
		close(entered)
		<-release
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{code: resp.StatusCode, body: string(body), err: err}
	}()

	<-entered // the request is in the handler, response unwritten
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Close must wait for the in-flight handler, not kill it: the request
	// must still be unanswered while the gate is held.
	select {
	case r := <-got:
		t.Fatalf("request finished before the handler was released: %+v", r)
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r2 := <-got
	if r2.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", r2.err)
	}
	if r2.code != http.StatusOK || !strings.Contains(r2.body, "sdpcm_mc_write_ops_total 42") {
		t.Fatalf("in-flight request -> %d %q", r2.code, r2.body)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestCloseHardStopAfterTimeout: a handler stuck past the shutdown timeout
// must not wedge Close forever — the hard-stop fallback kicks in.
func TestCloseHardStopAfterTimeout(t *testing.T) {
	defer func(d time.Duration) { shutdownTimeout = d }(shutdownTimeout)
	shutdownTimeout = 50 * time.Millisecond
	s := NewServer()
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	s.metricsGate = func() {
		close(entered)
		<-release
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + addr + "/metrics") //nolint:errcheck // dropped by design
	<-entered
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung past the shutdown timeout")
	}
}
