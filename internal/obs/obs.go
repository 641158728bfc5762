// Package obs is the live observability plane over the metrics registry
// (internal/metrics) and the sweep runner (internal/runner): an HTTP server
// exposing Prometheus-format metrics, sweep progress, the event-trace tail
// and net/http/pprof while a simulation or sweep is in flight, plus offline
// exporters — Perfetto/Chrome trace-event timelines from the typed event
// ring, and ASCII/JSON renderings of the WD spatial heatmap.
//
// Progress is the one fold of a sweep's point events: outcome counts, rate
// and ETA, and the merged metrics and heatmap aggregate. sdpcm-bench and
// the sweep service's jobs both read their sweeps through it. Lifecycle is
// the start/graceful-stop code shared by this package's Server and the
// sweep service's.
//
// Everything here is pull-based and zero-cost when unused: producers hand
// the server immutable snapshots (sim.Config.OnSnapshot) or feed its
// Progress as a sweep observer, and HTTP handlers render whatever is
// current. Nothing in this package touches the simulator's hot path.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"sdpcm/internal/metrics"
)

// shutdownTimeout bounds how long Lifecycle.Close waits for in-flight
// requests before the hard stop; a variable only so tests can shorten it.
var shutdownTimeout = 5 * time.Second

// Lifecycle runs an HTTP handler in the background and stops it
// gracefully. Server and the sweep service's server embed it; the zero
// value is ready to use.
type Lifecycle struct {
	srv *http.Server
}

// Start binds addr (":0" picks a free port) and serves h in a background
// goroutine, returning the bound address.
func (l *Lifecycle) Start(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	l.srv = &http.Server{Handler: h}
	go l.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close stops a started server gracefully; a no-op otherwise. It drains:
// the listener closes immediately (no new connections), but requests
// already in flight — a Prometheus scrape mid-render, say — get up to 5s
// to complete before the hard stop drops whatever is left.
func (l *Lifecycle) Close() error {
	if l.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		// Timed out (or the context machinery failed): fall back to the
		// hard stop so Close never hangs on a stuck connection.
		return l.srv.Close()
	}
	return nil
}

// Server serves the live observability endpoints:
//
//	/metrics       Prometheus text exposition of the current snapshot
//	/progress      sweep progress JSON (points done/cached/stored/errored, rate, ETA)
//	/events        most recent event-ring records as JSON (?n= limits)
//	/debug/pprof/  the standard Go profiling endpoints
//
// The current snapshot is the one last published with SetSnapshot (which
// sim.Config.OnSnapshot can point at directly); until then it is the
// Progress tracker's merged sweep aggregate, so a sweep needs only to feed
// Progress as its observer. Handlers read under a lock, so publication and
// serving never race. The zero value is not usable; construct with
// NewServer.
type Server struct {
	Lifecycle

	mu   sync.RWMutex
	snap *metrics.Snapshot
	prog *Progress

	// metricsGate, when non-nil, runs at the top of the /metrics handler —
	// a test hook for holding a request in flight across a Close call.
	metricsGate func()
}

// NewServer builds a server with an empty snapshot and a fresh Progress
// tracker.
func NewServer() *Server {
	return &Server{prog: NewProgress()}
}

// SetSnapshot publishes a snapshot; the snapshot must not be mutated after
// the call. The signature matches sim.Config.OnSnapshot, so a simulation
// publishes mid-run state with `cfg.OnSnapshot = srv.SetSnapshot`.
func (s *Server) SetSnapshot(sn *metrics.Snapshot) {
	s.mu.Lock()
	s.snap = sn
	s.mu.Unlock()
}

// Snapshot returns the most recently published snapshot, or before the
// first publication a copy of the Progress tracker's merged aggregate (nil
// while that is empty too).
func (s *Server) Snapshot() *metrics.Snapshot {
	s.mu.RLock()
	sn := s.snap
	s.mu.RUnlock()
	if sn == nil {
		return s.prog.Metrics()
	}
	return sn
}

// Progress returns the server's sweep tracker, for wiring into a runner
// observer chain.
func (s *Server) Progress() *Progress { return s.prog }

// Handler returns the observability mux (usable under httptest or a custom
// server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr (":0" picks a free port) and serves the observability
// mux in a background goroutine, returning the bound address. Close shuts
// it down.
func (s *Server) Start(addr string) (string, error) {
	return s.Lifecycle.Start(addr, s.Handler())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "sdpcm observability\n\n/metrics\n/progress\n/events\n/debug/pprof/\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.metricsGate != nil {
		s.metricsGate()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.Snapshot()); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.prog.Snapshot()) //nolint:errcheck // best effort over HTTP
}

// EventsPayload is the /events JSON shape. Dropped counts events the
// bounded ring overwrote before export (data lost at the producer);
// Truncated counts events the client itself trimmed with ?n= (data still
// in the snapshot, just not in this response). Conflating the two would
// make a tight tail request look like ring overflow.
type EventsPayload struct {
	Events    []metrics.Event `json:"events"`
	Dropped   uint64          `json:"dropped"`
	Truncated uint64          `json:"truncated"`
}

// EventsTail builds the /events payload from a snapshot: the newest n
// events (n < 0 keeps them all), the ring's overflow count, and how many
// the limit trimmed. Shared by the one-process plane and the sweep
// service's per-job events view.
func EventsTail(sn *metrics.Snapshot, n int) EventsPayload {
	payload := EventsPayload{}
	if sn != nil {
		payload.Events = sn.Events
		payload.Dropped = sn.EventsDropped
	}
	if n >= 0 && n < len(payload.Events) {
		payload.Truncated = uint64(len(payload.Events) - n)
		payload.Events = payload.Events[len(payload.Events)-n:]
	}
	if payload.Events == nil {
		payload.Events = []metrics.Event{}
	}
	return payload
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := -1
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		var err error
		n, err = strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(EventsTail(s.Snapshot(), n)) //nolint:errcheck // best effort over HTTP
}
