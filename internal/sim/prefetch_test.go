package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdpcm/internal/core"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// checkNoProducers fails unless the goroutine count falls back to base:
// Run must stop every producer before it returns. The short poll only
// absorbs runtime goroutines that exit on their own schedule.
func checkNoProducers(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func capture(t *testing.T, bench string, seed uint64, n int) []trace.Record {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Capture(g, n)
}

// TestPrefetchLeavesNoGoroutine covers Run's return paths: a completed run,
// a run that fails mid-loop, a replay whose stream ends before the
// reference limit, and a resumed run.
func TestPrefetchLeavesNoGoroutine(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		base := runtime.NumGoroutine()
		run(t, quickCfg(core.LazyC(6), "mcf"))
		checkNoProducers(t, base)
	})
	t.Run("mid-run error", func(t *testing.T) {
		cfg := quickCfg(core.LazyC(6), "mcf")
		cfg.MemPages, cfg.RegionPages = 256, 64 // far below the mix's footprint
		base := runtime.NumGoroutine()
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "core ") {
			t.Fatalf("want a translation failure inside the run loop, got %v", err)
		}
		checkNoProducers(t, base)
	})
	t.Run("short replay", func(t *testing.T) {
		recs := capture(t, "lbm", 5, 700)
		base := runtime.NumGoroutine()
		r := run(t, Config{
			Scheme:      core.LazyC(6),
			Streams:     []trace.Stream{trace.NewSliceStream(recs), trace.NewSliceStream(recs[:300])},
			RefsPerCore: 1000,
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        5,
		})
		if got := r.MC.DemandReads + r.MC.ForwardedReads + r.MC.WriteRequests; got != 1000 {
			t.Fatalf("replayed %d refs, want 700+300", got)
		}
		checkNoProducers(t, base)
	})
	t.Run("resume", func(t *testing.T) {
		ckptPath := filepath.Join(t.TempDir(), "mid.ckpt")
		w := quickCfg(core.LazyC(6), "mcf")
		w.CheckpointPath = ckptPath
		w.CheckpointEvery = 7001
		run(t, w)
		r := quickCfg(core.LazyC(6), "mcf")
		r.ResumeFrom = ckptPath
		base := runtime.NumGoroutine()
		run(t, r)
		checkNoProducers(t, base)
	})
}

// countingStream counts the records a run pulls from a caller's stream.
type countingStream struct {
	trace.Stream
	n int
}

func (s *countingStream) Next() (trace.Record, bool) {
	rec, ok := s.Stream.Next()
	if ok {
		s.n++
	}
	return rec, ok
}

// TestPrefetchStopsAtRefLimit: producers draw ahead of the loop but never
// past the reference limit, so a caller's stream is read exactly as far as
// the run consumes it, cold or resumed.
func TestPrefetchStopsAtRefLimit(t *testing.T) {
	recs := capture(t, "mcf", 9, 5000)
	const limit = 1000
	mk := func() (Config, []*countingStream) {
		cs := []*countingStream{
			{Stream: trace.NewSliceStream(recs)},
			{Stream: trace.NewSliceStream(recs)},
		}
		return Config{
			Scheme:      core.LazyC(6),
			Streams:     []trace.Stream{cs[0], cs[1]},
			RefsPerCore: limit,
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        3,
		}, cs
	}
	cfg, cs := mk()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ref-limit.ckpt")
	cfg.CheckpointEvery = 1101
	run(t, cfg)
	for i, s := range cs {
		if s.n != limit {
			t.Errorf("core %d: %d records pulled, limit %d", i, s.n, limit)
		}
	}
	resumed, cs := mk()
	resumed.ResumeFrom = cfg.CheckpointPath
	run(t, resumed)
	for i, s := range cs {
		if s.n != limit {
			t.Errorf("resumed core %d: %d records pulled (fast-forward included), limit %d", i, s.n, limit)
		}
	}
}

// TestResumeRejectsRunningCoreAtLimit: no run writes a core that is still
// running at its reference limit, and resuming one would leave the loop
// waiting on a producer with nothing left to draw, so the checkpoint is
// refused with ErrResume instead.
func TestResumeRejectsRunningCoreAtLimit(t *testing.T) {
	recs := capture(t, "mcf", 11, 100)
	mk := func() Config {
		return Config{
			Scheme:      core.LazyC(6),
			Streams:     []trace.Stream{trace.NewSliceStream(recs)},
			RefsPerCore: len(recs),
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        13,
		}
	}
	path := filepath.Join(t.TempDir(), "at-limit.ckpt")
	w := mk()
	w.CheckpointPath, w.CheckpointEvery = path, 51 // once, the core still running
	run(t, w)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The core's reference count follows the identity, the run's reference
	// and snapshot counters, the core count, its active flag and its time.
	id := (&runState{cfg: mk().normalized()}).identity()
	at := bytes.Index(data, []byte(id)) + len(id) + 8 + 8 + 1 + 1 + 8
	if at < len(id) || data[at-9] != 1 || data[at] != 51 {
		t.Fatal("core record not where expected in the checkpoint")
	}
	data[at] = byte(len(recs))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mk()
	r.ResumeFrom = path
	errc := make(chan error, 1)
	go func() {
		_, err := Run(r)
		errc <- err
	}()
	select {
	case err = <-errc:
	case <-time.After(30 * time.Second):
		t.Fatal("resume hung")
	}
	if !errors.Is(err, ErrResume) || !strings.Contains(err.Error(), "still running") {
		t.Fatalf("want ErrResume for a running core at its limit, got %v", err)
	}
}
