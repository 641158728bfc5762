package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/metrics"
	"sdpcm/internal/sim"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

func testBase() Base {
	return Base{RefsPerCore: 800, Cores: 2, MemPages: 1 << 14, RegionPages: 256, Seed: 7}
}

// testSpecs is a small grid with deliberate duplicates (two baseline/lbm
// points) and distinct knobs.
func testSpecs() []Spec {
	return []Spec{
		{Scheme: core.Baseline(), Bench: "lbm"},
		{Scheme: core.LazyC(6), Bench: "lbm"},
		{Scheme: core.Baseline(), Bench: "mcf"},
		{Scheme: core.Baseline(), Bench: "lbm", Tag: "dup"},
		{Scheme: core.LazyCPreRead(6), Bench: "mcf", QueueCap: 16},
		{Scheme: agedLazyC(0.5), Bench: "lbm"},
	}
}

// agedLazyC is LazyC(ECP-6) on a DIMM at the given lifetime fraction.
func agedLazyC(lifetime float64) core.Scheme {
	s := core.LazyC(6)
	s.HardErrorLifetime = lifetime
	return s
}

// TestDeterminism asserts the tentpole guarantee: the same grid run with 1
// worker and with many workers, and with the cache on and off, produces
// identical sim.Result values.
func TestDeterminism(t *testing.T) {
	base := testBase()
	specs := testSpecs()
	var ref []sim.Result
	for _, r := range []*Runner{
		{Workers: 1},
		{Workers: 8},
		{Workers: 1, NoCache: true},
		{Workers: 8, NoCache: true},
	} {
		res, err := r.RunContext(context.Background(), base, specs, nil)
		if err != nil {
			t.Fatalf("Workers=%d NoCache=%t: %v", r.Workers, r.NoCache, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if !reflect.DeepEqual(res[i], ref[i]) {
				t.Errorf("Workers=%d NoCache=%t: point %d diverged:\n got %+v\nwant %+v",
					r.Workers, r.NoCache, i, res[i], ref[i])
			}
		}
	}
}

func TestCacheDedup(t *testing.T) {
	r := &Runner{Workers: 4}
	specs := testSpecs()
	res, err := r.RunContext(context.Background(), testBase(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Points != len(specs) {
		t.Errorf("Points = %d, want %d", st.Points, len(specs))
	}
	if st.SimRuns != len(specs)-1 || st.CacheHits != 1 {
		t.Errorf("SimRuns = %d, CacheHits = %d; want %d and 1 (one duplicate point)",
			st.SimRuns, st.CacheHits, len(specs)-1)
	}
	if !reflect.DeepEqual(res[0], res[3]) {
		t.Error("duplicate specs returned different results")
	}
	// A second Run of the same grid is served entirely from the cache.
	res2, err := r.RunContext(context.Background(), testBase(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got.SimRuns != st.SimRuns {
		t.Errorf("re-run simulated %d new points, want 0", got.SimRuns-st.SimRuns)
	}
	for i := range res2 {
		if !reflect.DeepEqual(res2[i], res[i]) {
			t.Errorf("cached point %d differs from original", i)
		}
	}
}

func TestNoCacheRunsEveryPoint(t *testing.T) {
	r := &Runner{Workers: 2, NoCache: true}
	specs := testSpecs()
	if _, err := r.RunContext(context.Background(), testBase(), specs, nil); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SimRuns != len(specs) || st.CacheHits != 0 {
		t.Errorf("NoCache stats = %+v, want %d runs and 0 hits", st, len(specs))
	}
}

// TestKeyDistinct asserts that configs differing in any semantic knob never
// collide: every pair of distinct variants must get a distinct key.
func TestKeyDistinct(t *testing.T) {
	base := sim.Config{
		Scheme:      core.Baseline(),
		Mix:         workload.HomogeneousMix("lbm", 4),
		RefsPerCore: 1000,
		MemPages:    1 << 14,
		RegionPages: 256,
		Seed:        1,
	}
	type variant struct {
		name string
		cfg  sim.Config
	}
	mutate := func(name string, f func(*sim.Config)) variant {
		c := base
		f(&c)
		return variant{name: name, cfg: c}
	}
	variants := []variant{
		{name: "base", cfg: base},
		mutate("scheme", func(c *sim.Config) { c.Scheme = core.LazyC(6) }),
		mutate("lazy-flag", func(c *sim.Config) { c.Scheme.LazyCorrection = true }),
		mutate("no-correct", func(c *sim.Config) { c.Scheme.NoCorrectCharge = true }),
		mutate("no-verify", func(c *sim.Config) { c.Scheme.NoVerifyCharge = true }),
		mutate("encoding", func(c *sim.Config) { c.Scheme.Encoding = "fnw" }),
		mutate("ecp", func(c *sim.Config) { c.Scheme.ECPEntries = 6 }),
		mutate("alloc-tag", func(c *sim.Config) { c.Scheme.Tag = alloc.Tag23 }),
		mutate("layout", func(c *sim.Config) { c.Scheme = core.WDFree() }),
		mutate("bench", func(c *sim.Config) { c.Mix = workload.HomogeneousMix("mcf", 4) }),
		mutate("cores", func(c *sim.Config) { c.Mix = workload.HomogeneousMix("lbm", 8) }),
		mutate("refs", func(c *sim.Config) { c.RefsPerCore = 2000 }),
		mutate("mem", func(c *sim.Config) { c.MemPages = 1 << 15 }),
		mutate("region", func(c *sim.Config) { c.RegionPages = 512 }),
		mutate("queue", func(c *sim.Config) { c.WriteQueueCap = 16 }),
		mutate("seed", func(c *sim.Config) { c.Seed = 2 }),
		mutate("psi", func(c *sim.Config) { c.WearLevelPsi = 100 }),
		mutate("integrity", func(c *sim.Config) { c.CheckIntegrity = true }),
		mutate("coretags", func(c *sim.Config) { c.CoreTags = []alloc.Tag{alloc.Tag11, alloc.Tag12, alloc.Tag11, alloc.Tag11} }),
		mutate("barrier", func(c *sim.Config) { c.Scheme.Barrier = true }),
		mutate("hardlife", func(c *sim.Config) { c.Scheme.HardErrorLifetime = 0.5 }),
		mutate("hardlife-2", func(c *sim.Config) { c.Scheme.HardErrorLifetime = 1.0 }),
	}
	keys := map[string]string{}
	for _, v := range variants {
		k, ok := v.cfg.Key()
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", v.name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %q and %q: %s", prev, v.name, k)
		}
		keys[k] = v.name
	}
	// Equal configs must share a key.
	k1, _ := base.Key()
	k2, _ := base.Key()
	if k1 != k2 {
		t.Error("identical configs got different keys")
	}
}

func TestKeyUncacheable(t *testing.T) {
	cfg := sim.Config{Scheme: core.Baseline(), Streams: []trace.Stream{trace.NewSliceStream(nil)}}
	if _, ok := cfg.Key(); ok {
		t.Error("trace-replay config must not be cacheable")
	}
	cfg = sim.Config{Scheme: core.Baseline(), OnSnapshot: func(*metrics.Snapshot) {}}
	if _, ok := cfg.Key(); ok {
		t.Error("a config with a snapshot callback must not be cacheable")
	}
	if _, ok := (sim.Config{Scheme: agedLazyC(0.5)}).Key(); !ok {
		t.Error("an aged scheme must be cacheable")
	}
}

func TestGridExpand(t *testing.T) {
	g := Grid{
		Schemes:    []core.Scheme{core.Baseline(), core.LazyC(6)},
		Benchmarks: []string{"lbm", "mcf"},
		QueueCaps:  []int{8, 16},
		Tag:        "sweep",
	}
	specs := g.Expand()
	if len(specs) != 8 {
		t.Fatalf("expanded %d specs, want 8", len(specs))
	}
	// Benchmark-major order, then scheme, then queue cap.
	want := Spec{Scheme: core.Baseline(), Bench: "lbm", QueueCap: 16, Tag: "sweep"}
	if got := specs[1]; got.Bench != want.Bench || got.QueueCap != want.QueueCap ||
		got.Scheme.Name != want.Scheme.Name || got.Tag != "sweep" {
		t.Errorf("specs[1] = %+v, want %+v", got, want)
	}
	if specs[4].Bench != "mcf" {
		t.Errorf("specs[4].Bench = %q, want mcf", specs[4].Bench)
	}
}

func TestObserverEvents(t *testing.T) {
	var mu sync.Mutex
	events := map[int]PointEvent{}
	r := &Runner{Workers: 4}
	obs := ObserverFunc(func(ev PointEvent) {
		// The runner serializes observer calls; the mutex only guards
		// against the test goroutine reading early.
		mu.Lock()
		events[ev.Index] = ev
		mu.Unlock()
	})
	specs := testSpecs()
	if _, err := r.RunContext(context.Background(), testBase(), specs, obs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(specs) {
		t.Fatalf("observed %d events, want %d", len(events), len(specs))
	}
	cached := 0
	for i, ev := range events {
		if ev.Total != len(specs) {
			t.Errorf("event %d Total = %d", i, ev.Total)
		}
		if ev.Err != nil {
			t.Errorf("event %d unexpected error: %v", i, ev.Err)
		}
		if ev.Wall < 0 || ev.Wall > time.Minute {
			t.Errorf("event %d implausible wall time %v", i, ev.Wall)
		}
		if ev.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("observed %d cached points, want 1", cached)
	}
}

func TestRunErrorIsDeterministic(t *testing.T) {
	bad := Spec{Scheme: core.Scheme{}, Bench: "lbm"} // no name/layout: invalid
	specs := []Spec{
		{Scheme: core.Baseline(), Bench: "lbm"},
		bad,
		{Scheme: core.Baseline(), Bench: "mcf"},
	}
	r := &Runner{Workers: 4}
	_, err := r.RunContext(context.Background(), testBase(), specs, nil)
	if err == nil {
		t.Fatal("invalid spec must fail the run")
	}
	want := fmt.Sprintf("%v", err)
	for i := 0; i < 3; i++ {
		_, err2 := (&Runner{Workers: 4}).RunContext(context.Background(), testBase(), specs, nil)
		if err2 == nil || fmt.Sprintf("%v", err2) != want {
			t.Fatalf("error not deterministic: %v vs %v", err2, err)
		}
	}
}

// checkpointSpec is a single sweep point whose total reference count (800
// refs × 2 cores = 1600) lets an interval of 801 fire exactly one mid-run
// checkpoint that is never overwritten.
const ckptInterval = 801

// TestCheckpointSweepUnperturbed: a checkpointing sweep produces the same
// results as a plain one, and deletes every checkpoint on completion.
func TestCheckpointSweepUnperturbed(t *testing.T) {
	base := testBase()
	specs := testSpecs()
	plain, err := (&Runner{Workers: 4}).RunContext(context.Background(), base, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &Runner{Workers: 4, CheckpointDir: dir, CheckpointEvery: ckptInterval}
	res, err := r.RunContext(context.Background(), base, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !reflect.DeepEqual(res[i], plain[i]) {
			t.Errorf("point %d diverged under checkpointing", i)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("completed sweep left checkpoints behind: %v", left)
	}
}

// TestCheckpointSweepResume models a killed sweep: a mid-run checkpoint is
// left in the directory (written by a direct sim.Run, the same file a killed
// owner goroutine would leave), and a fresh Runner pointed at the directory
// must resume the point to the exact cold-run result, then clean up.
func TestCheckpointSweepResume(t *testing.T) {
	base := testBase()
	sp := Spec{Scheme: core.LazyC(6), Bench: "mcf"}
	cold, err := (&Runner{Workers: 1}).RunContext(context.Background(), base, []Spec{sp}, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r := &Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: ckptInterval}
	cfg := sp.Resolve(base)
	key, ok := cfg.Key()
	if !ok {
		t.Fatal("spec unexpectedly uncacheable")
	}
	path := r.checkpointPath(key)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = ckptInterval
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no mid-run checkpoint written: %v", err)
	}

	res, err := r.RunContext(context.Background(), base, []Spec{sp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], cold[0]) {
		t.Errorf("resumed point diverged from cold run")
	}
	if st := r.Stats(); st.SimRuns != 1 {
		t.Errorf("resumed sweep ran %d simulations, want 1", st.SimRuns)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint not cleaned up after success: %v", err)
	}
}

// TestCheckpointCorruptFallsBackCold: an unreadable checkpoint must not fail
// the sweep — the point restarts cold and still matches.
func TestCheckpointCorruptFallsBackCold(t *testing.T) {
	base := testBase()
	sp := Spec{Scheme: core.Baseline(), Bench: "lbm"}
	cold, err := (&Runner{Workers: 1}).RunContext(context.Background(), base, []Spec{sp}, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r := &Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: ckptInterval}
	cfg := sp.Resolve(base)
	key, _ := cfg.Key()
	path := r.checkpointPath(key)
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunContext(context.Background(), base, []Spec{sp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], cold[0]) {
		t.Errorf("cold fallback diverged")
	}
	if st := r.Stats(); st.SimRuns != 2 {
		t.Errorf("fallback ran %d simulations, want 2 (failed resume + cold)", st.SimRuns)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt checkpoint not removed: %v", err)
	}
}

// mapStore is an in-memory MemoStore for tests: a map guarded by a mutex,
// with counters for Load/Store traffic.
type mapStore struct {
	mu     sync.Mutex
	m      map[string]sim.Result
	loads  int
	stores int
}

func newMapStore() *mapStore { return &mapStore{m: map[string]sim.Result{}} }

func (s *mapStore) Load(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	res, ok := s.m[key]
	return res, ok
}

func (s *mapStore) Store(key string, res sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores++
	s.m[key] = res
	return nil
}

// TestMemoStoreRoundTrip pins the durable-tier contract: a fresh Runner
// sharing the store of a completed sweep answers the identical sweep with
// zero sim.Run calls, and the results are identical values.
func TestMemoStoreRoundTrip(t *testing.T) {
	store := newMapStore()
	base := testBase()
	specs := testSpecs()

	first := &Runner{Workers: 4, Store: store}
	want, err := first.RunContext(context.Background(), base, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.StoreHits != 0 || st.SimRuns != len(specs)-1 {
		t.Fatalf("cold run stats = %+v", st)
	}
	if store.stores != len(specs)-1 {
		t.Fatalf("cold run persisted %d entries, want %d", store.stores, len(specs)-1)
	}

	// A new Runner = a new process: the in-memory cache is empty, so every
	// unique point must be answered by the store.
	second := &Runner{Workers: 4, Store: store}
	var events []PointEvent
	obs := ObserverFunc(func(ev PointEvent) { events = append(events, ev) })
	got, err := second.RunContext(context.Background(), base, specs, obs)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.SimRuns != 0 {
		t.Errorf("warm run simulated %d points, want 0", st.SimRuns)
	}
	if st.StoreHits != len(specs)-1 || st.CacheHits != 1 {
		t.Errorf("warm run StoreHits = %d, CacheHits = %d; want %d and 1",
			st.StoreHits, st.CacheHits, len(specs)-1)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d diverged through the store:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	stored := 0
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("warm point errored: %v", ev.Err)
		}
		if ev.Stored {
			stored++
		}
	}
	if stored != len(specs)-1 {
		t.Errorf("%d events marked Stored, want %d", stored, len(specs)-1)
	}
}

// TestMemoStoreSkipsUncacheable: a point without a canonical key (here one
// with a snapshot callback) must bypass the store entirely.
func TestMemoStoreSkipsUncacheable(t *testing.T) {
	store := newMapStore()
	r := &Runner{Workers: 1, Store: store}
	cfg := Spec{Scheme: core.Baseline(), Bench: "lbm"}.Resolve(testBase())
	cfg.OnSnapshot = func(*metrics.Snapshot) {}
	if _, _, _, err := r.point(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if store.loads != 0 || store.stores != 0 {
		t.Errorf("uncacheable point touched the store: %d loads, %d stores", store.loads, store.stores)
	}
}

// TestRunContextCanceled: a canceled context fails queued points fast with
// ctx.Err() and never runs their simulations.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Workers: 1}
	_, err := r.RunContext(ctx, testBase(), testSpecs(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.SimRuns != 0 {
		t.Errorf("canceled run simulated %d points", st.SimRuns)
	}
}

// TestCanceledOwnerDoesNotPoisonCache: after a canceled RunContext, the
// same Runner must still simulate the points on a live context instead of
// serving the cancellation error from the memo cache.
func TestCanceledOwnerDoesNotPoisonCache(t *testing.T) {
	r := &Runner{Workers: 2}
	base := testBase()
	specs := testSpecs()[:2]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx, base, specs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := r.RunContext(context.Background(), base, specs, nil)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if len(res) != len(specs) || res[0].Cycles == 0 {
		t.Fatalf("retry returned empty results: %+v", res)
	}
}

// TestRunContextPerCallObserver: concurrent RunContext calls sharing one
// Runner each see exactly their own call's points, even when their specs
// overlap — and the shared point still simulates once.
func TestRunContextPerCallObserver(t *testing.T) {
	r := &Runner{Workers: 2}
	all := testSpecs()
	calls := [][]Spec{all[:2], all[1:3]} // all[1] is in both calls
	seen := make([][]PointEvent, len(calls))
	var wg sync.WaitGroup
	for c := range calls {
		// Tags are not part of the cache key: they only mark whose call an
		// event belongs to.
		specs := append([]Spec(nil), calls[c]...)
		for i := range specs {
			specs[i].Tag = fmt.Sprintf("call-%d", c)
		}
		calls[c] = specs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			obs := ObserverFunc(func(ev PointEvent) { seen[c] = append(seen[c], ev) })
			if _, err := r.RunContext(context.Background(), testBase(), specs, obs); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	for c, specs := range calls {
		if len(seen[c]) != len(specs) {
			t.Fatalf("call %d observed %d events, want %d", c, len(seen[c]), len(specs))
		}
		got := map[int]bool{}
		for _, ev := range seen[c] {
			want := specs[ev.Index]
			if got[ev.Index] || ev.Total != len(specs) || ev.Spec.Tag != want.Tag ||
				ev.Spec.Bench != want.Bench || ev.Spec.Scheme.Name != want.Scheme.Name {
				t.Errorf("call %d: foreign or duplicate event %d %s/%s/%s",
					c, ev.Index, ev.Spec.Tag, ev.Spec.Scheme.Name, ev.Spec.Bench)
			}
			got[ev.Index] = true
		}
	}
	if st := r.Stats(); st.SimRuns != 3 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 3 simulations and 1 cache hit for the shared point", st)
	}
}
