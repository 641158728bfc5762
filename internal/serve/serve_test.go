package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// smallSpec is a one-point job: fig4 over a single benchmark at a tiny
// sweep scale.
func smallSpec() JobSpec {
	return JobSpec{
		Experiment:  "fig4",
		RefsPerCore: 800,
		Cores:       2,
		MemMB:       64,
		RegionPages: 256,
		Benchmarks:  []string{"lbm"},
		Seed:        7,
	}
}

func newTestServer(t *testing.T, cfg ManagerConfig) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewServer(m, nil).Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func getBody(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobLifecycleEndToEnd drives one job through the HTTP API: submit,
// poll to done, fetch the table, progress, events and the job-labeled
// Prometheus exposition.
func TestJobLifecycleEndToEnd(t *testing.T) {
	m, ts := newTestServer(t, ManagerConfig{})
	st := submit(t, ts, smallSpec())
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	j, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	code, body := getBody(t, ts.URL+"/api/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status -> %d", code)
	}
	var got JobStatus
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Points == 0 || got.SimRuns == 0 {
		t.Fatalf("status = %+v", got)
	}
	if got.Started == nil || got.Finished == nil {
		t.Fatalf("timestamps missing: %+v", got)
	}

	code, table := getBody(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !strings.HasPrefix(table, "== Figure 4") {
		t.Fatalf("result -> %d %q", code, table)
	}
	if !strings.HasSuffix(table, "\n") {
		t.Fatal("result table must end with a newline")
	}

	code, body = getBody(t, ts.URL+"/api/v1/jobs/"+st.ID+"/progress")
	if code != http.StatusOK || !strings.Contains(body, `"points_done": 1`) {
		t.Fatalf("progress -> %d %s", code, body)
	}

	code, body = getBody(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events")
	if code != http.StatusOK || !strings.Contains(body, `"events"`) {
		t.Fatalf("events -> %d %s", code, body)
	}

	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics -> %d", code)
	}
	if !strings.Contains(body, `{job="`+st.ID+`"}`) {
		t.Fatalf("/metrics missing job-labeled series:\n%s", body)
	}
	for _, want := range []string{"sdpcm_build_info{", "sdpcm_serve_uptime_seconds",
		`sdpcm_serve_jobs{state="done"} 1`, "sdpcm_serve_sim_runs_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, ts.URL+"/api/v1/jobs")
	if code != http.StatusOK || !strings.Contains(body, st.ID) {
		t.Fatalf("list -> %d %s", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz not ok")
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz not ok")
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatal("unknown job must 404")
	}
	code, body = getBody(t, ts.URL+"/api/v1/experiments")
	if code != http.StatusOK || !strings.Contains(body, `"fig11"`) {
		t.Fatalf("experiments -> %d %s", code, body)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{})
	for name, body := range map[string]string{
		"unknown experiment": `{"experiment":"fig99"}`,
		"unknown benchmark":  `{"experiment":"fig4","benchmarks":["nope"]}`,
		"unknown field":      `{"experiment":"fig4","bogus":1}`,
		// The executor knob was removed; the strict decoder refuses it.
		"retired shards field": `{"experiment":"fig4","shards":4}`,
		"not json":             `{`,
		"trailing data":        `{"experiment":"fig4"} {"experiment":"fig99","bogus":1} garbage`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsOversizeBody: a submit body over the 1 MiB cap is
// refused with 413 before it is read in full, whether the excess is inside
// the spec or after it.
func TestSubmitRejectsOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{})
	big := strings.Repeat("a", 10<<20)
	for name, body := range map[string]string{
		"oversize experiment": `{"experiment":"` + big + `"}`,
		"oversize trailing":   `{"experiment":"fig4"}` + strings.Repeat(" ", 2<<20),
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s -> %d, want 413", name, resp.StatusCode)
		}
	}
}

// TestResultNotReady: fetching a result before the job finishes answers
// 409, not a broken table.
func TestResultNotReady(t *testing.T) {
	// Hold the only slot so the job is still queued when the GET arrives.
	m, ts := newTestServer(t, ManagerConfig{MaxJobs: 1})
	m.sem <- struct{}{}
	queued := submit(t, ts, smallSpec())
	code, body := getBody(t, ts.URL+"/api/v1/jobs/"+queued.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of unfinished job -> %d %s", code, body)
	}
	<-m.sem
	j, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
}

// TestSecondSubmissionServedFromDisk is the tentpole's cross-process
// proof: a fresh manager (fresh in-memory cache, fresh executor) sharing
// the first manager's store directory answers an identical job with zero
// simulations, and the fetched table is byte-identical.
func TestSecondSubmissionServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	store1, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, ts1 := newTestServer(t, ManagerConfig{Store: store1})
	st1 := submit(t, ts1, smallSpec())
	j1, err := m1.Get(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	_, table1 := getBody(t, ts1.URL+"/api/v1/jobs/"+st1.ID+"/result")
	cold := j1.Status()
	if cold.SimRuns == 0 || cold.StoreHits != 0 {
		t.Fatalf("cold job = %+v", cold)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, ts2 := newTestServer(t, ManagerConfig{Store: store2})
	st2 := submit(t, ts2, smallSpec())
	j2, err := m2.Get(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	warm := j2.Status()
	if warm.State != StateDone {
		t.Fatalf("warm job = %+v", warm)
	}
	if warm.SimRuns != 0 || warm.StoreHits != warm.Points {
		t.Fatalf("warm job simulated: %+v", warm)
	}
	if es := m2.ExecStats(); es.SimRuns != 0 {
		t.Fatalf("warm executor ran %d simulations", es.SimRuns)
	}
	_, table2 := getBody(t, ts2.URL+"/api/v1/jobs/"+st2.ID+"/result")
	if table1 != table2 {
		t.Fatalf("store-served table differs:\n%q\nvs\n%q", table1, table2)
	}
}

// TestSSEStream reads a job's live stream to the end: at least one point
// event and a final done status must arrive, then the stream closes.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{})
	st := submit(t, ts, smallSpec())
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var sawPoint bool
	for _, e := range events {
		if e == "point" {
			sawPoint = true
		}
	}
	if !sawPoint || len(events) < 2 || events[len(events)-1] != "status" {
		t.Fatalf("stream events = %v", events)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final streamed status = %+v", final)
	}
}

// TestCancel: a canceled job reaches the canceled state and its result
// stays unavailable.
func TestCancel(t *testing.T) {
	m, ts := newTestServer(t, ManagerConfig{MaxJobs: 1})
	// Hold the manager's only slot so the submitted job stays queued until
	// the cancel lands — no race against a fast sweep.
	m.sem <- struct{}{}
	queued := submit(t, ts, smallSpec())
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel -> %d", resp.StatusCode)
	}
	j, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if s := j.State(); s != StateCanceled {
		t.Fatalf("canceled job state = %s", s)
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/jobs/"+queued.ID+"/result"); code != http.StatusConflict {
		t.Fatal("canceled job must not serve a result")
	}
	// Release the slot: a fresh submission must still run to completion.
	<-m.sem
	after := submit(t, ts, smallSpec())
	ja, err := m.Get(after.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	if s := ja.State(); s != StateDone {
		t.Fatalf("post-cancel job state = %s", s)
	}
}

// TestDrain: draining rejects new submissions (readyz flips to 503), waits
// for in-flight jobs, and leaves them completed.
func TestDrain(t *testing.T) {
	m, ts := newTestServer(t, ManagerConfig{})
	st := submit(t, ts, smallSpec())
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	j, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s := j.State(); s != StateDone {
		t.Fatalf("drained job state = %s", s)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz must 503 while draining")
	}
	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining -> %d", resp.StatusCode)
	}
}
