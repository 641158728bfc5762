package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"sdpcm/internal/core"
	"sdpcm/internal/experiments"
	"sdpcm/internal/metrics"
	"sdpcm/internal/obs"
	"sdpcm/internal/runner"
	"sdpcm/internal/topo"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// ErrDraining rejects submissions once the manager has begun shutting down.
var ErrDraining = errors.New("serve: draining, not accepting new jobs")

// ErrNoSuchJob reports an unknown job ID.
var ErrNoSuchJob = errors.New("serve: no such job")

// jobEventLogCap bounds the per-job point-event replay log backing the SSE
// stream; a sweep longer than this replays only its newest tail.
const jobEventLogCap = 512

// jobEventRingCap bounds the per-job typed-event ring backing the /events
// view (the per-point tails concatenate here; overflow counts as dropped).
const jobEventRingCap = 1024

// JobSpec is the POST /api/v1/jobs request body: which experiment to run
// and the sweep-scale knobs, mirroring sdpcm-bench's flags. Zero values
// pick the experiment harness defaults. Metrics collection is always on —
// it does not perturb results, and every job gets /metrics for free.
type JobSpec struct {
	// Experiment names a registry entry (fig11, table1, ... — see
	// GET /api/v1/experiments).
	Experiment  string   `json:"experiment"`
	RefsPerCore int      `json:"refs_per_core,omitempty"`
	Cores       int      `json:"cores,omitempty"`
	MemMB       int      `json:"mem_mb,omitempty"`
	RegionPages int      `json:"region_pages,omitempty"`
	Benchmarks  []string `json:"benchmarks,omitempty"`
	Schemes     []string `json:"schemes,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	// TraceEvents keeps the last N controller events per point, feeding the
	// job's /events view.
	TraceEvents int `json:"trace_events,omitempty"`
	// HeatmapRegions enables the WD spatial heatmap (per bank ×
	// line-region), served at the job's /heatmap endpoint.
	HeatmapRegions int `json:"heatmap_regions,omitempty"`
	// Topology, when set, runs every point of the job on the memory
	// topology described by the spec (see sim.Config.Topology). Omitted
	// means the default single 16-bank DIMM.
	Topology *topo.Spec `json:"topology,omitempty"`
}

// Validate rejects a spec the run would reject anyway, so submission
// errors surface as HTTP 400 instead of a failed job.
func (s JobSpec) Validate() error {
	if _, err := experiments.ByName(s.Experiment); err != nil {
		return err
	}
	for _, b := range s.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return err
		}
	}
	if !s.Topology.IsDefault() {
		if err := s.Topology.Validate(func(name string) bool {
			_, err := core.ByName(name, 0)
			return err == nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// options maps the spec onto the experiment harness.
func (s JobSpec) options() experiments.Options {
	return experiments.Options{
		Base: runner.Base{
			RefsPerCore:    s.RefsPerCore,
			Cores:          s.Cores,
			MemPages:       s.MemMB * 256, // 4KB pages
			RegionPages:    s.RegionPages,
			Seed:           s.Seed,
			CollectMetrics: true,
			TraceEvents:    s.TraceEvents,
			HeatmapRegions: s.HeatmapRegions,
			Topology:       s.Topology,
		},
		Benchmarks: s.Benchmarks,
		Schemes:    s.Schemes,
	}
}

// PointRecord is one completed sweep point as seen on a job's SSE stream
// (event: point) and in its replay log.
type PointRecord struct {
	Seq    int     `json:"seq"`
	Scheme string  `json:"scheme"`
	Bench  string  `json:"bench"`
	Tag    string  `json:"tag,omitempty"`
	Cached bool    `json:"cached"`
	Stored bool    `json:"stored"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"error,omitempty"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
}

// JobStatus is the job-API JSON view of one job.
type JobStatus struct {
	ID       string               `json:"id"`
	State    JobState             `json:"state"`
	Spec     JobSpec              `json:"spec"`
	Error    string               `json:"error,omitempty"`
	Created  time.Time            `json:"created"`
	Started  *time.Time           `json:"started,omitempty"`
	Finished *time.Time           `json:"finished,omitempty"`
	Progress obs.ProgressSnapshot `json:"progress"`
	// Points/SimRuns/CacheHits/StoreHits decompose where the job's results
	// came from: fresh simulation, the in-memory memo cache, or the durable
	// on-disk store.
	Points    int `json:"points"`
	SimRuns   int `json:"sim_runs"`
	CacheHits int `json:"cache_hits"`
	StoreHits int `json:"store_hits"`
}

// Job is one submitted sweep. It implements runner.Observer: the executor
// feeds it one event per completed point. The job's obs.Progress folds the
// event (outcome counts, rate and ETA, merged metrics and heatmap); the job
// itself keeps only what depends on completion order — the typed-event
// ring and the SSE replay log — plus its lifecycle.
type Job struct {
	ID   string
	Spec JobSpec

	prog   *obs.Progress
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu        sync.Mutex
	state     JobState
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
	table     string
	evRing    []metrics.Event
	evDropped uint64
	seq       int
	log       []PointRecord
	subs      map[chan PointRecord]struct{}
}

// PointDone implements runner.Observer. The executor serializes calls.
func (j *Job) PointDone(ev runner.PointEvent) {
	j.prog.PointDone(ev)
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Err == nil && ev.Result != nil && ev.Result.Metrics != nil {
		j.appendEvents(ev.Result.Metrics)
	}
	j.seq++
	rec := PointRecord{
		Seq:    j.seq,
		Scheme: ev.Spec.Scheme.Name,
		Bench:  ev.Spec.Bench,
		Tag:    ev.Spec.Tag,
		Cached: ev.Cached,
		Stored: ev.Stored,
		WallMS: float64(ev.Wall) / float64(time.Millisecond),
		Done:   j.seq,
		Total:  ev.Total,
	}
	if ev.Err != nil {
		rec.Err = ev.Err.Error()
	}
	if len(j.log) >= jobEventLogCap {
		j.log = j.log[1:]
	}
	j.log = append(j.log, rec)
	for ch := range j.subs {
		select {
		case ch <- rec:
		default: // slow subscriber: it drops this record, never blocks the sweep
		}
	}
}

// appendEvents folds a point's typed-event tail into the job ring.
// Caller holds j.mu.
func (j *Job) appendEvents(m *metrics.Snapshot) {
	j.evDropped += m.EventsDropped
	j.evRing = append(j.evRing, m.Events...)
	if over := len(j.evRing) - jobEventRingCap; over > 0 {
		j.evDropped += uint64(over)
		j.evRing = append(j.evRing[:0:0], j.evRing[over:]...)
	}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.prog.Snapshot()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Error:     j.err,
		Created:   j.created,
		Progress:  p,
		Points:    p.PointsDone,
		SimRuns:   p.PointsSimulated(),
		CacheHits: p.PointsCached,
		StoreHits: p.PointsStored,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Table returns the rendered result table; ok is false until the job is
// done.
func (j *Job) Table() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table, j.state == StateDone
}

// Heatmap returns a copy of the merged WD heatmap (nil when not enabled or
// no point has finished yet).
func (j *Job) Heatmap() *wd.HeatmapSnapshot { return j.prog.Heatmap() }

// MetricsSnapshot returns the job's merged metrics aggregate plus the
// typed-event ring, shaped for obs.WritePrometheusLabeled / obs.EventsTail.
func (j *Job) MetricsSnapshot() *metrics.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The ring fills only from points the aggregate already merged, so an
	// empty aggregate means an empty ring.
	sn := j.prog.Metrics()
	if sn == nil {
		return nil
	}
	sn.Events = append([]metrics.Event(nil), j.evRing...)
	sn.EventsDropped = j.evDropped
	return sn
}

// Progress returns the job's live progress snapshot.
func (j *Job) Progress() obs.ProgressSnapshot { return j.prog.Snapshot() }

// Done exposes the terminal-state signal (closed when the job finishes).
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cooperative cancellation: queued jobs never start,
// running jobs stop at the next sweep-point boundary (in-flight
// simulations complete and still populate the caches).
func (j *Job) Cancel() { j.cancel() }

// Subscribe registers a live listener: it returns a replay of the point
// log so far and a channel carrying subsequent records. The channel closes
// when the job finishes. unsubscribe must be called when the listener goes
// away.
func (j *Job) Subscribe() (replay []PointRecord, ch chan PointRecord, unsubscribe func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]PointRecord(nil), j.log...)
	ch = make(chan PointRecord, 64)
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		close(ch)
		return replay, ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan PointRecord]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// finish moves the job to its terminal state and releases subscribers.
func (j *Job) finish(state JobState, table string, err error) {
	j.mu.Lock()
	j.state = state
	j.table = table
	j.finished = time.Now()
	if err != nil {
		j.err = err.Error()
	}
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
	close(j.done)
}

// ManagerConfig configures a job manager.
type ManagerConfig struct {
	// Store is the durable result tier (nil: in-memory memoization only).
	Store *DiskStore
	// MaxJobs bounds concurrently running jobs (<=0: 2). Queued jobs start
	// in submission order as slots free up.
	MaxJobs int
	// Workers bounds concurrent simulations across all jobs (<=0:
	// GOMAXPROCS) — the shared executor's worker pool.
	Workers int
	// Logger receives job lifecycle records; nil discards them.
	Logger *slog.Logger
}

// Manager owns the shared sweep executor and the job table. All jobs run
// through one runner.Runner, so its in-memory memo cache spans jobs, and
// the optional DiskStore underneath spans processes.
type Manager struct {
	exec   *runner.Runner
	store  *DiskStore
	logger *slog.Logger
	sem    chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	start  time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool
}

// NewManager builds a manager with a fresh shared executor.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	exec := &runner.Runner{Workers: cfg.Workers}
	if cfg.Store != nil {
		// Assign only a live store: a typed-nil *DiskStore inside the
		// interface would read as non-nil to the runner.
		exec.Store = cfg.Store
	}
	return &Manager{
		exec:   exec,
		store:  cfg.Store,
		logger: logger,
		sem:    make(chan struct{}, cfg.MaxJobs),
		ctx:    ctx,
		cancel: cancel,
		start:  time.Now(),
		jobs:   make(map[string]*Job),
	}
}

// Store returns the durable result store (nil when running without one).
func (m *Manager) Store() *DiskStore { return m.store }

// ExecStats snapshots the shared executor's counters.
func (m *Manager) ExecStats() runner.Stats { return m.exec.Stats() }

// Uptime reports time since the manager was built.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Submit validates the spec, enqueues a job and starts it as soon as a
// slot frees up. The returned job is already visible to Get/List.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		ID:      id,
		Spec:    spec,
		prog:    obs.NewProgress(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()
	m.logger.Info("job submitted", "job", id, "experiment", spec.Experiment)
	go m.runJob(j)
	return j, nil
}

// runJob is one job's lifecycle goroutine: wait for a slot, run the
// experiment through the shared executor, finalize.
func (m *Manager) runJob(j *Job) {
	defer m.wg.Done()
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-j.ctx.Done():
		j.finish(StateCanceled, "", j.ctx.Err())
		m.logger.Info("job canceled before start", "job", j.ID)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.logger.Info("job started", "job", j.ID, "experiment", j.Spec.Experiment)

	exp, err := experiments.ByName(j.Spec.Experiment)
	if err != nil {
		// Unreachable after Validate, but never let a registry drift panic.
		j.finish(StateFailed, "", err)
		return
	}
	opts := j.Spec.options()
	opts.Exec = m.exec
	opts.Ctx = j.ctx
	opts.Observer = j
	j.prog.Begin(j.Spec.Experiment)
	start := time.Now()
	tb, err := exp.Run(opts)
	wall := time.Since(start)
	switch {
	case err != nil && j.ctx.Err() != nil:
		j.finish(StateCanceled, "", context.Canceled)
		m.logger.Info("job canceled", "job", j.ID, "wall", wall)
	case err != nil:
		j.finish(StateFailed, "", err)
		m.logger.Error("job failed", "job", j.ID, "error", err, "wall", wall)
	default:
		// The golden tables are the rendered table plus a trailing newline;
		// serving exactly that keeps fetched results byte-comparable.
		j.finish(StateDone, tb.String()+"\n", nil)
		st := j.Status()
		m.logger.Info("job done", "job", j.ID, "wall", wall,
			"points", st.Points, "sim_runs", st.SimRuns,
			"cache_hits", st.CacheHits, "store_hits", st.StoreHits)
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return j, nil
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// JobCounts tallies jobs by state (the self-metrics feed).
func (m *Manager) JobCounts() map[JobState]int {
	counts := make(map[JobState]int, 5)
	for _, j := range m.List() {
		counts[j.State()]++
	}
	return counts
}

// Drain stops accepting submissions and waits for every job to finish.
// When ctx expires first, remaining jobs are canceled cooperatively and
// Drain waits for them to reach a terminal state (in-flight simulations
// complete; queued work never starts).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.logger.Info("draining", "jobs", len(m.List()))
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.logger.Warn("drain deadline hit, canceling remaining jobs")
		m.cancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels everything and waits; for tests and hard shutdown.
func (m *Manager) Close() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}
