// Package runner is the declarative sweep executor behind the experiment
// harness. The paper's evaluation (§6) is a grid of scheme × benchmark ×
// knob points; instead of each figure hand-rolling a sequential loop of
// sim.Run calls, a figure declares its points as a list of Specs (usually
// expanded from a Grid), hands them to a Runner, and assembles the returned
// results into its table.
//
// The Runner executes points on a bounded pool of worker goroutines.
// Because every point's sim.Config — including its seed — is fully resolved
// from (Base, Spec) before dispatch and sim.Run is a pure function of its
// config, results are bit-identical to a sequential run regardless of worker
// count or completion order.
//
// A Runner also memoizes results by a canonical encoding of the resolved
// config (see sim.Config.Key): points shared between figures — e.g. the
// per-benchmark baseline re-run today by Fig4, Fig5, Fig11, Fig12 ... —
// simulate once per Runner, with concurrent duplicates coalesced onto a
// single execution.
package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sdpcm/internal/core"
	"sdpcm/internal/sim"
	"sdpcm/internal/topo"
	"sdpcm/internal/workload"
)

// Base holds the sweep-wide simulation parameters shared by every point of
// a grid: everything about the run that is not the design point itself.
// Zero fields fall back to the sim package defaults (Cores to 8).
type Base struct {
	RefsPerCore int
	Cores       int
	MemPages    int
	RegionPages int
	Seed        uint64
	// CollectMetrics / TraceEvents enable the observability layer on every
	// point: each sim.Result carries a Metrics snapshot (and event tail).
	// Both are part of the cache key, so metric-collecting and plain sweeps
	// memoize separately.
	CollectMetrics bool
	TraceEvents    int
	// HeatmapRegions enables the WD spatial heatmap on every point (per
	// bank × line-region accumulation in sim.Result.Heatmap). Part of the
	// cache key, like the other observability toggles.
	HeatmapRegions int
	// Topology, when non-default, runs every point on the multi-module
	// simulator (see sim.Config.Topology). Part of the cache key via its
	// canonical rendering; nil keeps old keys (and stored results) valid.
	Topology *topo.Spec
}

func (b Base) normalized() Base {
	if b.Cores <= 0 {
		b.Cores = 8
	}
	return b
}

// Spec names one simulation point of a sweep: the design point (its
// hard-error lifetime included), the workload and the write-queue capacity.
// Tag is a free-form label carried through to observers and table assembly
// (figures typically set it to the point's column label or role).
type Spec struct {
	Scheme   core.Scheme
	Bench    string
	QueueCap int
	Tag      string
}

// Resolve expands the spec into the full simulation config it names.
func (s Spec) Resolve(b Base) sim.Config {
	b = b.normalized()
	return sim.Config{
		Scheme:         s.Scheme,
		Mix:            workload.HomogeneousMix(s.Bench, b.Cores),
		RefsPerCore:    b.RefsPerCore,
		MemPages:       b.MemPages,
		RegionPages:    b.RegionPages,
		WriteQueueCap:  s.QueueCap,
		Seed:           b.Seed,
		CollectMetrics: b.CollectMetrics,
		TraceEvents:    b.TraceEvents,
		HeatmapRegions: b.HeatmapRegions,
		Topology:       b.Topology,
	}
}

// Grid declares a sweep as the cross product of its axes. Empty QueueCaps
// collapse to {0} (the Table 2 default queue), so the common scheme ×
// benchmark grid needs only two axes.
type Grid struct {
	Schemes    []core.Scheme
	Benchmarks []string
	QueueCaps  []int
	// Tag is copied to every expanded Spec.
	Tag string
}

// Expand lists the grid's points benchmark-major (benchmark outer, then
// scheme, then queue cap), mirroring the paper's per-figure loops.
func (g Grid) Expand() []Spec {
	qs := g.QueueCaps
	if len(qs) == 0 {
		qs = []int{0}
	}
	specs := make([]Spec, 0, len(g.Benchmarks)*len(g.Schemes)*len(qs))
	for _, b := range g.Benchmarks {
		for _, s := range g.Schemes {
			for _, q := range qs {
				specs = append(specs, Spec{Scheme: s, Bench: b, QueueCap: q, Tag: g.Tag})
			}
		}
	}
	return specs
}

// Stats is a snapshot of a Runner's counters.
type Stats struct {
	// Points is the number of specs executed through RunContext.
	Points int
	// SimRuns is the number of actual sim.Run invocations.
	SimRuns int
	// CacheHits counts points served from the in-memory memo cache,
	// including points coalesced onto a concurrently executing duplicate.
	CacheHits int
	// StoreHits counts points answered by the durable MemoStore instead of
	// sim.Run — cache hits that survived from an earlier process or job.
	StoreHits int
}

// Runner executes sweep points on a bounded worker pool, memoizing results
// by resolved config. The zero value is ready to use: GOMAXPROCS workers,
// cache enabled. A Runner must not be copied after first use; RunContext
// may be called concurrently and sequentially-reused — the cache spans all
// calls, which is how sdpcm-bench -exp all deduplicates points shared
// between figures.
type Runner struct {
	// Workers bounds concurrent sim.Run executions (<=0: GOMAXPROCS).
	Workers int
	// NoCache disables memoization (every point simulates).
	NoCache bool
	// CheckpointDir, together with CheckpointEvery, makes long sweeps
	// resumable: every cacheable point periodically publishes a
	// sim-state checkpoint named by the sha256 of its cache key. A killed
	// sweep restarted with the same directory resumes each in-flight point
	// from its last checkpoint (the resume contract guarantees an
	// identical Result); completed points delete their file. Unreadable or
	// stale checkpoints fall back to a cold start. Uncacheable points
	// (unkeyable configs) never checkpoint.
	CheckpointDir string
	// CheckpointEvery is the per-point checkpoint interval in processed
	// references (see sim.Config.CheckpointEvery).
	CheckpointEvery int
	// Store, when non-nil, is the durable tier under the in-memory memo
	// cache: owned points consult it before simulating and persist their
	// result after a cold run, so the cache spans processes and users. See
	// MemoStore for the contract.
	Store MemoStore

	mu    sync.Mutex
	cache map[string]*entry
	stats Stats

	obsMu sync.Mutex

	semOnce sync.Once
	sem     chan struct{}
}

// entry is one memoized point; done closes when res/err are final.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error
	// evicted marks an entry removed from the cache because its owner was
	// canceled before producing a result: waiters from still-live contexts
	// re-claim the key instead of inheriting the cancellation error.
	evicted bool
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// claim returns the cache entry for key and whether the caller owns it
// (owner must run the simulation and close entry.done).
func (r *Runner) claim(key string) (*entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.cache[key]; ok {
		return e, false
	}
	if r.cache == nil {
		r.cache = make(map[string]*entry)
	}
	e := &entry{done: make(chan struct{})}
	r.cache[key] = e
	return e, true
}

// evict removes a canceled owner's entry so the key can be claimed again;
// the evicted flag is published to waiters by the subsequent close of
// entry.done.
func (r *Runner) evict(key string, e *entry) {
	r.mu.Lock()
	if r.cache[key] == e {
		delete(r.cache, key)
	}
	e.evicted = true
	r.mu.Unlock()
}

func (r *Runner) countHit(stored bool) {
	r.mu.Lock()
	if stored {
		r.stats.StoreHits++
	} else {
		r.stats.CacheHits++
	}
	r.mu.Unlock()
}

// exec runs one simulation under the worker-pool semaphore. Cancellation is
// cooperative at point granularity: a canceled context aborts the wait for
// a worker slot, but a sim.Run already in flight always completes.
func (r *Runner) exec(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	r.semOnce.Do(func() {
		w := r.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, w)
	})
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
	defer func() { <-r.sem }()
	// The select above is a race when both cases are ready; re-check so a
	// canceled context never starts a fresh simulation.
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	r.mu.Lock()
	r.stats.SimRuns++
	r.mu.Unlock()
	return sim.Run(cfg)
}

// checkpointPath names a point's checkpoint file inside CheckpointDir: the
// cache key is canonical for the resolved config, so its hash is stable
// across processes — which is what lets a restarted sweep find the file.
func (r *Runner) checkpointPath(key string) string {
	return filepath.Join(r.CheckpointDir, fmt.Sprintf("%x.ckpt", sha256.Sum256([]byte(key))))
}

// execPoint runs one owned cacheable point, wiring the checkpoint life
// cycle around exec: resume from an existing file, fall back to a cold
// start when the file is unusable, delete it once the point completes.
func (r *Runner) execPoint(ctx context.Context, cfg sim.Config, key string) (sim.Result, error) {
	if r.CheckpointDir == "" || r.CheckpointEvery <= 0 {
		return r.exec(ctx, cfg)
	}
	if err := os.MkdirAll(r.CheckpointDir, 0o755); err != nil {
		// Checkpointing is best-effort; an unusable directory must not
		// fail the sweep.
		return r.exec(ctx, cfg)
	}
	path := r.checkpointPath(key)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = r.CheckpointEvery
	if _, err := os.Stat(path); err == nil {
		cfg.ResumeFrom = path
	}
	res, err := r.exec(ctx, cfg)
	if errors.Is(err, sim.ErrResume) {
		// Stale, corrupt or mismatched checkpoint: discard it and run cold.
		os.Remove(path)
		cfg.ResumeFrom = ""
		res, err = r.exec(ctx, cfg)
	}
	if err == nil {
		os.Remove(path)
	}
	return res, err
}

// execOwned runs one owned cacheable point: the durable store is consulted
// first, and a successful cold simulation is persisted back. The returned
// bool reports a store hit.
func (r *Runner) execOwned(ctx context.Context, cfg sim.Config, key string) (sim.Result, bool, error) {
	if r.Store != nil {
		if res, ok := r.Store.Load(key); ok {
			r.countHit(true)
			return res, true, nil
		}
	}
	res, err := r.execPoint(ctx, cfg, key)
	if err == nil && r.Store != nil {
		// Best-effort: a full disk or unwritable store must not fail a
		// sweep that already holds its result.
		r.Store.Store(key, res) //nolint:errcheck
	}
	return res, false, err
}

// point executes one resolved config: an uncacheable one (see
// sim.Config.Key) simulates directly; a cacheable one goes through the
// two-tier cache with duplicate coalescing. Waiters whose owner was
// canceled re-claim the key rather than inheriting the owner's
// cancellation error.
func (r *Runner) point(ctx context.Context, cfg sim.Config) (res sim.Result, cached, stored bool, err error) {
	key, cacheable := cfg.Key()
	if !cacheable || r.NoCache {
		res, err = r.exec(ctx, cfg)
		return res, false, false, err
	}
	for {
		e, owner := r.claim(key)
		if owner {
			res, stored, err = r.execOwned(ctx, cfg, key)
			if err != nil && ctx.Err() != nil {
				// A canceled owner must not poison the shared cache: evict
				// before closing done so the next claimant simulates.
				r.evict(key, e)
			}
			e.res, e.err = res, err
			close(e.done)
			return res, false, stored, err
		}
		select {
		case <-e.done:
			if e.evicted && ctx.Err() == nil {
				continue
			}
			r.countHit(false)
			return e.res, true, false, e.err
		case <-ctx.Done():
			return sim.Result{}, false, false, ctx.Err()
		}
	}
}

// RunContext executes every spec and returns the results in spec order. On
// failure it returns the error of the lowest-index failing spec, so error
// reporting is as deterministic as the results themselves. The context and
// observer are per call — the shape a multi-tenant sweep service needs,
// where one shared Runner (one memo cache, one worker pool, one durable
// store) executes many concurrent jobs that each want their own progress
// events and cancel switch.
//
// Cancellation is at sweep-point granularity: once ctx is done, points not
// yet simulating return ctx.Err() immediately (including points waiting for
// a worker slot or for a duplicate), while a sim.Run already in flight
// completes — and, being cacheable, still lands in the cache for the next
// submission. A canceled point never poisons the shared memo cache: its
// entry is evicted so concurrent duplicates from live contexts re-claim and
// simulate.
//
// obs, when non-nil, receives this call's per-point completion events;
// calls are serialized Runner-wide.
//
// Only the actual simulations occupy worker slots; points waiting on a
// concurrently executing duplicate (or served from the cache) do not, so a
// single worker can never deadlock against its own duplicates.
func (r *Runner) RunContext(ctx context.Context, base Base, specs []Spec, obs Observer) ([]sim.Result, error) {
	results := make([]sim.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp Spec) {
			defer wg.Done()
			start := time.Now()
			cfg := sp.Resolve(base)
			var cached, stored bool
			results[i], cached, stored, errs[i] = r.point(ctx, cfg)
			ev := PointEvent{
				Index:  i,
				Total:  len(specs),
				Spec:   sp,
				Wall:   time.Since(start),
				Cached: cached,
				Stored: stored,
				Err:    errs[i],
			}
			if errs[i] == nil {
				res := results[i]
				ev.Result = &res
			}
			r.observe(obs, ev)
		}(i, sp)
	}
	wg.Wait()
	r.mu.Lock()
	r.stats.Points += len(specs)
	r.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (r *Runner) observe(obs Observer, ev PointEvent) {
	if obs == nil {
		return
	}
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	obs.PointDone(ev)
}
