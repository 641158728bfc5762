package obs

import (
	"sync"
	"time"

	"sdpcm/internal/runner"
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
	// Done counts completed points (Cached + Stored + Errored included).
	Done    int `json:"done"`
	Cached  int `json:"cached"`
	Stored  int `json:"stored"`
	Errored int `json:"errored"`
}

// ProgressSnapshot is the /progress JSON payload.
type ProgressSnapshot struct {
	// Experiments lists every section in Begin order; the last entry is the
	// one currently executing.
	Experiments []ExperimentProgress `json:"experiments"`
	// PointsDone / PointsCached / PointsStored / PointsErrored tally the
	// whole invocation; Stored counts points answered by the durable result
	// store without simulating.
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

// Progress is a live sweep tracker: it implements runner.Observer, so
// passing it as ExperimentOptions.Observer (or as RunContext's per-call
// observer) feeds it one event per completed point, and its Snapshot serves
// the /progress endpoint. Safe for concurrent use — the Runner serializes
// observer calls, but HTTP readers arrive on their own goroutines.
type Progress struct {
	mu       sync.Mutex
	now      func() time.Time // test hook; time.Now when nil
	start    time.Time
	lastDone time.Time
	rate     float64 // EWMA points/sec
	done     int
	cached   int
	stored   int
	errored  int
	exps     []ExperimentProgress
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
	cur.Done++
	p.done++
	if ev.Cached {
		cur.Cached++
		p.cached++
	}
	if ev.Stored {
		cur.Stored++
		p.stored++
	}
	if ev.Err != nil {
		cur.Errored++
		p.errored++
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
		PointsDone:    p.done,
		PointsCached:  p.cached,
		PointsStored:  p.stored,
		PointsErrored: p.errored,
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
