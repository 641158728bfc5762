package obs

import (
	"sync"
	"time"

	"sdpcm/internal/metrics"
	"sdpcm/internal/runner"
	"sdpcm/internal/wd"
)

// ewmaAlpha weights the newest inter-point interval in the rate estimate:
// high enough to track a sweep speeding up as cache hits kick in, low
// enough that one slow point does not swing the ETA.
const ewmaAlpha = 0.2

// ExperimentProgress is one experiment's (or anonymous sweep's) tally.
type ExperimentProgress struct {
	Name string `json:"name"`
	// Total is the point count of the experiment's largest Run call — an
	// upper bound on what remains when a figure issues several sweeps.
	Total int `json:"total"`
	// Done counts completed points. Each point has exactly one outcome,
	// checked in this order: Errored, Stored, Cached, else simulated.
	Done    int `json:"done"`
	Cached  int `json:"cached"`
	Stored  int `json:"stored"`
	Errored int `json:"errored"`
}

// Simulated counts the section's points that ran sim.Run.
func (e ExperimentProgress) Simulated() int { return e.Done - e.Cached - e.Stored - e.Errored }

// count tallies one point under its single outcome.
func (e *ExperimentProgress) count(ev runner.PointEvent) {
	e.Done++
	switch {
	case ev.Err != nil:
		// A waiter coalesced onto a failed owner arrives Cached and errored;
		// it counts once, as an error.
		e.Errored++
	case ev.Stored:
		e.Stored++
	case ev.Cached:
		e.Cached++
	}
}

// ProgressSnapshot is the /progress JSON payload.
type ProgressSnapshot struct {
	// Experiments lists every section in Begin order; the last entry is the
	// one currently executing.
	Experiments []ExperimentProgress `json:"experiments"`
	// PointsDone / PointsCached / PointsStored / PointsErrored tally the
	// whole invocation with the same exclusive outcomes as a section; Stored
	// counts points answered by the durable result store without simulating.
	PointsDone    int `json:"points_done"`
	PointsCached  int `json:"points_cached"`
	PointsStored  int `json:"points_stored"`
	PointsErrored int `json:"points_errored"`
	// RatePerSec is the EWMA point completion rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// ETASeconds estimates time to finish the current experiment section
	// (remaining points / rate); 0 when idle or unknown.
	ETASeconds float64 `json:"eta_seconds"`
	// ElapsedSeconds is wall time since the tracker saw its first event (or
	// Begin call).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// PointsSimulated counts the invocation's points that ran sim.Run.
func (s ProgressSnapshot) PointsSimulated() int {
	return s.PointsDone - s.PointsCached - s.PointsStored - s.PointsErrored
}

// Progress is the one fold of a sweep's point events: it implements
// runner.Observer, so passing it as ExperimentOptions.Observer (or as
// RunContext's per-call observer) feeds it one event per completed point.
// It counts outcomes per section and in total, tracks the completion rate
// and ETA, and merges every successful point's metrics snapshot and WD
// heatmap into one aggregate. Merging is commutative (counters and
// histogram buckets sum, gauges keep the max, heatmap cells sum), so the
// aggregate is deterministic regardless of worker count or completion
// order. Safe for concurrent use — the Runner serializes observer calls,
// but HTTP readers arrive on their own goroutines.
type Progress struct {
	mu       sync.Mutex
	now      func() time.Time // test hook; time.Now when nil
	start    time.Time
	lastDone time.Time
	rate     float64            // EWMA points/sec
	total    ExperimentProgress // whole-invocation counts (Name, Total unused)
	exps     []ExperimentProgress
	merged   *metrics.Snapshot
	heat     *wd.HeatmapSnapshot
}

// NewProgress builds an empty tracker.
func NewProgress() *Progress { return &Progress{} }

func (p *Progress) clock() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// Begin opens a new experiment section; subsequent point completions tally
// against it. Without a Begin call, events fall into an anonymous "sweep"
// section.
func (p *Progress) Begin(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = p.clock()
	}
	p.exps = append(p.exps, ExperimentProgress{Name: name})
}

// PointDone implements runner.Observer.
func (p *Progress) PointDone(ev runner.PointEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.clock()
	if p.start.IsZero() {
		p.start = t
	}
	if len(p.exps) == 0 {
		p.exps = append(p.exps, ExperimentProgress{Name: "sweep"})
	}
	cur := &p.exps[len(p.exps)-1]
	if ev.Total > cur.Total {
		cur.Total = ev.Total
	}
	cur.count(ev)
	p.total.count(ev)
	if ev.Err == nil && ev.Result != nil {
		p.heat = p.heat.Merge(ev.Result.Heatmap)
		if ev.Result.Metrics != nil {
			p.merged = p.merged.Merge(ev.Result.Metrics)
		}
	}
	// EWMA over inter-completion intervals. Cached points land in bursts;
	// the floor keeps a zero interval from producing an infinite rate.
	ref := p.lastDone
	if ref.IsZero() {
		ref = p.start
	}
	dt := t.Sub(ref).Seconds()
	if dt < 1e-6 {
		dt = 1e-6
	}
	inst := 1 / dt
	if p.rate == 0 {
		p.rate = inst
	} else {
		p.rate = ewmaAlpha*inst + (1-ewmaAlpha)*p.rate
	}
	p.lastDone = t
}

// Snapshot exports the tracker state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Experiments:   append([]ExperimentProgress(nil), p.exps...),
		PointsDone:    p.total.Done,
		PointsCached:  p.total.Cached,
		PointsStored:  p.total.Stored,
		PointsErrored: p.total.Errored,
		RatePerSec:    p.rate,
	}
	if !p.start.IsZero() {
		s.ElapsedSeconds = p.clock().Sub(p.start).Seconds()
	}
	if n := len(p.exps); n > 0 && p.rate > 0 {
		if remaining := p.exps[n-1].Total - p.exps[n-1].Done; remaining > 0 {
			s.ETASeconds = float64(remaining) / p.rate
		}
	}
	return s
}

// Metrics returns a copy of the merged metrics aggregate (nil before the
// first point carrying a snapshot). The copy is shallow but safe to keep:
// Merge assigns fresh slices to the aggregate rather than writing into the
// ones a copy shares.
func (p *Progress) Metrics() *metrics.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.merged == nil {
		return nil
	}
	cp := *p.merged
	return &cp
}

// Heatmap returns a deep copy of the merged WD heatmap (nil when heatmaps
// are disabled or no point has finished); the aggregate's cells are
// updated in place, so a reader must not share them.
func (p *Progress) Heatmap() *wd.HeatmapSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return (*wd.HeatmapSnapshot)(nil).Merge(p.heat)
}
