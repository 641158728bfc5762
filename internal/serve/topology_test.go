package serve

import (
	"net/http"
	"strings"
	"testing"

	"sdpcm/internal/topo"
)

// TestTopologyJob drives a multi-module job through the HTTP API: the
// topology field round-trips the submission JSON, the sweep runs on the
// described modules, and the rendered table is served like any other job's.
func TestTopologyJob(t *testing.T) {
	m, ts := newTestServer(t, ManagerConfig{})
	spec := smallSpec()
	spec.Topology = topo.Demo2()
	st := submit(t, ts, spec)
	j, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if s := j.State(); s != StateDone {
		t.Fatalf("topology job state = %s", s)
	}
	code, table := getBody(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !strings.HasPrefix(table, "== Figure 4") {
		t.Fatalf("result -> %d %q", code, table)
	}
}

// TestTopologyJobValidation: a malformed topology is a 400 at submission,
// not a failed job.
func TestTopologyJobValidation(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{})
	for name, body := range map[string]string{
		"unknown scheme": `{"experiment":"fig4","topology":{"modules":[{"name":"m","scheme":"nope"}]}}`,
		"duplicate name": `{"experiment":"fig4","topology":{"modules":[{"name":"m"},{"name":"m"}]}}`,
		"page overflow": `{"experiment":"fig4","topology":{"modules":[{"pages":4611686018427387904},{"pages":4611686018427387904},` +
			`{"pages":4611686018427387904},{"pages":4611686018429485056}]}}`,
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
