package obs

import (
	"errors"
	"testing"
	"time"

	"sdpcm/internal/metrics"
	"sdpcm/internal/runner"
	"sdpcm/internal/sim"
	"sdpcm/internal/wd"
)

// fakeClock returns a fixed time until tick advances it, so Snapshot reads
// never perturb the inter-completion intervals the EWMA measures.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }

func newTestProgress() (*Progress, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := NewProgress()
	p.now = c.now
	return p, c
}

func TestProgressCounts(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("fig11")
	for i := 0; i < 6; i++ {
		c.tick(time.Second)
		ev := runner.PointEvent{Index: i, Total: 6}
		switch i {
		case 1, 2:
			ev.Cached = true
		case 4:
			ev.Err = errors.New("boom")
		case 5:
			// A waiter coalesced onto a failed owner: an error, not a hit.
			ev.Cached = true
			ev.Err = errors.New("boom")
		}
		p.PointDone(ev)
	}
	s := p.Snapshot()
	if s.PointsDone != 6 || s.PointsCached != 2 || s.PointsErrored != 2 || s.PointsSimulated() != 2 {
		t.Fatalf("totals = %+v", s)
	}
	if len(s.Experiments) != 1 {
		t.Fatalf("experiments = %+v", s.Experiments)
	}
	e := s.Experiments[0]
	if e.Name != "fig11" || e.Total != 6 || e.Done != 6 || e.Cached != 2 || e.Errored != 2 || e.Simulated() != 2 {
		t.Fatalf("experiment = %+v", e)
	}
	if s.ElapsedSeconds != 6 {
		t.Fatalf("elapsed = %v, want 6", s.ElapsedSeconds)
	}
}

func TestProgressAnonymousSection(t *testing.T) {
	p, c := newTestProgress()
	c.tick(time.Second)
	p.PointDone(runner.PointEvent{Total: 3})
	s := p.Snapshot()
	if len(s.Experiments) != 1 || s.Experiments[0].Name != "sweep" {
		t.Fatalf("expected an anonymous sweep section, got %+v", s.Experiments)
	}
}

func TestProgressRateAndETA(t *testing.T) {
	// One point per second: the EWMA must converge to 1/s and the ETA must
	// fall monotonically as the section drains at a constant pace.
	p, c := newTestProgress()
	p.Begin("fig12")
	var lastETA float64
	for i := 0; i < 20; i++ {
		c.tick(time.Second)
		p.PointDone(runner.PointEvent{Index: i, Total: 40})
		s := p.Snapshot()
		if s.RatePerSec <= 0 {
			t.Fatalf("rate = %v after %d points", s.RatePerSec, i+1)
		}
		if i > 0 && s.ETASeconds >= lastETA {
			t.Fatalf("ETA not monotone at point %d: %v -> %v", i, lastETA, s.ETASeconds)
		}
		lastETA = s.ETASeconds
	}
	s := p.Snapshot()
	if s.RatePerSec < 0.99 || s.RatePerSec > 1.01 {
		t.Fatalf("EWMA rate = %v, want ~1/s", s.RatePerSec)
	}
	// 20 of 40 points remain at 1/s.
	if s.ETASeconds < 19 || s.ETASeconds > 21 {
		t.Fatalf("ETA = %vs, want ~20s", s.ETASeconds)
	}
}

func TestProgressCachedBurstDoesNotBlowUpRate(t *testing.T) {
	// Cached points complete back-to-back with ~zero interval; the dt floor
	// must keep the rate finite.
	p, c := newTestProgress()
	p.Begin("fig13")
	c.tick(time.Second)
	for i := 0; i < 10; i++ {
		p.PointDone(runner.PointEvent{Index: i, Total: 10, Cached: true})
	}
	s := p.Snapshot()
	if s.RatePerSec <= 0 || s.RatePerSec != s.RatePerSec { // NaN check
		t.Fatalf("rate = %v", s.RatePerSec)
	}
}

func TestProgressETAZeroWhenSectionDone(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("fig13")
	for i := 0; i < 3; i++ {
		c.tick(time.Second)
		p.PointDone(runner.PointEvent{Index: i, Total: 3})
	}
	if eta := p.Snapshot().ETASeconds; eta != 0 {
		t.Fatalf("ETA = %v after the section finished, want 0", eta)
	}
}

func TestProgressNewSectionResetsETA(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("a")
	c.tick(time.Second)
	p.PointDone(runner.PointEvent{Total: 100})
	if p.Snapshot().ETASeconds == 0 {
		t.Fatal("mid-section ETA should be positive")
	}
	p.Begin("b")
	// The new, empty section has no Total yet, so nothing remains to estimate.
	if eta := p.Snapshot().ETASeconds; eta != 0 {
		t.Fatalf("fresh section ETA = %v, want 0", eta)
	}
}

// pointWith builds a successful point event carrying a metrics snapshot with
// one counter and a one-cell heatmap.
func pointWith(writes, injected uint64) runner.PointEvent {
	s := &metrics.Snapshot{Counters: []metrics.CounterPoint{{Name: "mc.write_ops", Value: writes}}}
	hm := &wd.HeatmapSnapshot{Banks: 1, Regions: 1, Cells: [][]wd.HeatCell{{{Injected: injected}}}}
	return runner.PointEvent{Total: 2, Result: &sim.Result{Metrics: s, Heatmap: hm}}
}

func TestProgressMergesAggregate(t *testing.T) {
	p := NewProgress()
	if p.Metrics() != nil || p.Heatmap() != nil {
		t.Fatal("empty tracker must report no aggregate")
	}
	p.PointDone(pointWith(3, 5))
	m, h := p.Metrics(), p.Heatmap()
	// A failed point contributes nothing; the second success sums in.
	p.PointDone(runner.PointEvent{Total: 2, Err: errors.New("boom")})
	p.PointDone(pointWith(4, 6))

	if got := p.Metrics().Counters; len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("merged counters = %+v, want mc.write_ops 7", got)
	}
	if got := p.Heatmap().Cells[0][0].Injected; got != 11 {
		t.Fatalf("merged injected = %d, want 11", got)
	}
	// Copies taken earlier are unaffected by later merges.
	if m.Counters[0].Value != 3 || h.Cells[0][0].Injected != 5 {
		t.Fatalf("earlier copies changed: counters %+v, heatmap %+v", m.Counters, h.Cells)
	}
}
