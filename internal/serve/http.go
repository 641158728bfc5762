package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"sdpcm/internal/experiments"
	"sdpcm/internal/obs"
)

// Server is the sweep service's HTTP front end:
//
//	POST   /api/v1/jobs              submit a sweep (JobSpec JSON) -> 202 + status
//	GET    /api/v1/jobs              list jobs
//	GET    /api/v1/jobs/{id}         one job's status
//	GET    /api/v1/jobs/{id}/result  the rendered result table (text; 200 when done)
//	GET    /api/v1/jobs/{id}/heatmap merged WD spatial heatmap JSON
//	GET    /api/v1/jobs/{id}/progress live progress JSON (points done/cached/stored, rate, ETA)
//	GET    /api/v1/jobs/{id}/events  typed-event tail JSON (?n= limits)
//	GET    /api/v1/jobs/{id}/stream  live SSE: point completions + progress + final status
//	POST   /api/v1/jobs/{id}/cancel  cooperative cancel (also DELETE /api/v1/jobs/{id})
//	GET    /api/v1/experiments       the experiment registry
//	GET    /metrics                  Prometheus exposition: per-job series ({job="..."}) + self metrics
//	GET    /healthz                  liveness (always 200 while serving)
//	GET    /readyz                   readiness (503 once draining)
//
// Start and Close share obs.Server's lifecycle: Close drains in-flight
// requests before the hard stop.
type Server struct {
	obs.Lifecycle

	mgr    *Manager
	logger *slog.Logger
}

// NewServer wraps a manager; logger nil discards request-level records.
func NewServer(m *Manager, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{mgr: m, logger: logger}
}

// Manager returns the underlying job manager.
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the service mux (usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /api/v1/jobs/{id}/heatmap", s.withJob(s.handleHeatmap))
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.withJob(s.handleProgress))
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.withJob(s.handleEvents))
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.withJob(s.handleStream))
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.withJob(s.handleCancel))
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /", s.handleIndex)
	return mux
}

// Start binds addr (":0" picks a free port) and serves the service mux in
// the background.
func (s *Server) Start(addr string) (string, error) {
	return s.Lifecycle.Start(addr, s.Handler())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort over HTTP
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// withJob resolves the {id} path segment before invoking h.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := s.mgr.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "sdpcm sweep service\n\n"+
		"POST /api/v1/jobs\nGET /api/v1/jobs\nGET /api/v1/jobs/{id}\n"+
		"GET /api/v1/jobs/{id}/result\nGET /api/v1/jobs/{id}/heatmap\n"+
		"GET /api/v1/jobs/{id}/progress\nGET /api/v1/jobs/{id}/events\n"+
		"GET /api/v1/jobs/{id}/stream\nPOST /api/v1/jobs/{id}/cancel\n"+
		"GET /api/v1/experiments\nGET /metrics\nGET /healthz\nGET /readyz\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.mgr.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n") //nolint:errcheck
}

// experimentInfo is one registry entry in the /api/v1/experiments listing.
type experimentInfo struct {
	Name string `json:"name"`
	// Static entries are closed-form tables; they ignore sweep knobs.
	Static bool `json:"static"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	reg := experiments.Registry()
	out := make([]experimentInfo, len(reg))
	for i, e := range reg {
		out[i] = experimentInfo{Name: e.Name, Static: e.Static}
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSubmitBytes caps a submit body. A job spec is a few hundred bytes, a
// topology a few KB; a larger body is refused before it is read in full.
const maxSubmitBytes = 1 << 20

// decodeJobSpec is the strict submit decoder: an unknown field, or anything
// but white space after the spec, is an error. A read error is wrapped, so
// the caller can tell a body over its size cap from a bad spec.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("bad job spec: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return spec, nil
	case err != nil:
		return JobSpec{}, fmt.Errorf("bad job spec: after the spec: %w", err)
	default:
		return JobSpec{}, errors.New("bad job spec: trailing data after spec")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.logger.Info("submitted", "job", j.ID, "experiment", spec.Experiment,
		"remote", r.RemoteAddr)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.mgr.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, _ *http.Request, j *Job) {
	table, ok := j.Table()
	if !ok {
		st := j.Status()
		if st.Error != "" {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", j.ID, st.State, st.Error))
			return
		}
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, result not ready", j.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, table) //nolint:errcheck // best effort over HTTP
}

func (s *Server) handleHeatmap(w http.ResponseWriter, _ *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteHeatmapJSON(w, j.Heatmap()); err != nil {
		s.logger.Warn("heatmap render failed", "job", j.ID, "error", err)
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, j.Progress())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	n := -1
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		var err error
		n, err = strconv.Atoi(nStr)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad n"))
			return
		}
	}
	writeJSON(w, http.StatusOK, obs.EventsTail(j.MetricsSnapshot(), n))
}

func (s *Server) handleCancel(w http.ResponseWriter, _ *http.Request, j *Job) {
	j.Cancel()
	s.logger.Info("cancel requested", "job", j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// sseEvent writes one Server-Sent Event with a JSON payload.
func sseEvent(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// handleStream serves the live SSE view of one job: an initial status
// event, a replay of completed points, then live point completions and
// periodic progress, ending with the final status once the job reaches a
// terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	replay, ch, unsubscribe := j.Subscribe()
	defer unsubscribe()
	if err := sseEvent(w, "status", j.Status()); err != nil {
		return
	}
	for _, rec := range replay {
		if err := sseEvent(w, "point", rec); err != nil {
			return
		}
	}
	flusher.Flush()

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case rec, open := <-ch:
			if !open {
				// Terminal state: emit the final status and end the stream.
				sseEvent(w, "status", j.Status()) //nolint:errcheck
				flusher.Flush()
				return
			}
			if err := sseEvent(w, "point", rec); err != nil {
				return
			}
			flusher.Flush()
		case <-ticker.C:
			if err := sseEvent(w, "progress", j.Progress()); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics renders the multi-tenant exposition: every job's merged
// snapshot under {job="<id>"}, then the service's own build/uptime/job/
// store/executor series.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, j := range s.mgr.List() {
		sn := j.MetricsSnapshot()
		if sn == nil {
			continue
		}
		if err := obs.WritePrometheusLabeled(w, sn, []obs.Label{{Name: "job", Value: j.ID}}); err != nil {
			return
		}
	}
	s.writeSelfMetrics(w)
}

// buildInfo resolves the binary's version identifiers once.
func buildInfo() (goVersion, revision string) {
	goVersion, revision = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}

func (s *Server) writeSelfMetrics(w io.Writer) {
	goVersion, revision := buildInfo()
	fmt.Fprintf(w, "# TYPE sdpcm_build_info gauge\n"+
		"sdpcm_build_info{go_version=%q,revision=%q} 1\n", goVersion, revision)
	fmt.Fprintf(w, "# TYPE sdpcm_serve_uptime_seconds gauge\n"+
		"sdpcm_serve_uptime_seconds %.3f\n", s.mgr.Uptime().Seconds())
	fmt.Fprint(w, "# TYPE sdpcm_serve_jobs gauge\n")
	counts := s.mgr.JobCounts()
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "sdpcm_serve_jobs{state=%q} %d\n", st, counts[st])
	}
	es := s.mgr.ExecStats()
	fmt.Fprintf(w, "# TYPE sdpcm_serve_points_total counter\nsdpcm_serve_points_total %d\n", es.Points)
	fmt.Fprintf(w, "# TYPE sdpcm_serve_sim_runs_total counter\nsdpcm_serve_sim_runs_total %d\n", es.SimRuns)
	fmt.Fprintf(w, "# TYPE sdpcm_serve_cache_hits_total counter\nsdpcm_serve_cache_hits_total %d\n", es.CacheHits)
	fmt.Fprintf(w, "# TYPE sdpcm_serve_store_hits_total counter\nsdpcm_serve_store_hits_total %d\n", es.StoreHits)
	if st := s.mgr.Store(); st != nil {
		ss := st.Stats()
		fmt.Fprintf(w, "# TYPE sdpcm_serve_store_reads_total counter\n"+
			"sdpcm_serve_store_reads_total{outcome=\"hit\"} %d\n"+
			"sdpcm_serve_store_reads_total{outcome=\"miss\"} %d\n"+
			"sdpcm_serve_store_reads_total{outcome=\"corrupt\"} %d\n",
			ss.Hits, ss.Misses, ss.Corrupt)
		fmt.Fprintf(w, "# TYPE sdpcm_serve_store_writes_total counter\nsdpcm_serve_store_writes_total %d\n", ss.Writes)
	}
}
