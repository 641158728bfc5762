package sdpcm_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"sdpcm"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := sdpcm.SimConfig{
		Mix:         sdpcm.HomogeneousMix("lbm", 4),
		RefsPerCore: 2500,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        5,
	}
	cfg.Scheme = sdpcm.Baseline()
	base, err := sdpcm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = sdpcm.LazyCPreRead(sdpcm.DefaultECPEntries)
	sd, err := sdpcm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := sdpcm.Speedup(base, sd); s <= 1.0 {
		t.Fatalf("SD-PCM speedup = %v, must beat baseline", s)
	}
}

func TestPublicBenchmarksList(t *testing.T) {
	names := sdpcm.Benchmarks()
	if len(names) != 9 {
		t.Fatalf("Benchmarks() = %v, want the 9 Table 3 apps", names)
	}
	spec, err := sdpcm.WorkloadByName("mcf")
	if err != nil || spec.WPKI != 20.47 {
		t.Fatalf("WorkloadByName(mcf) = %+v, %v", spec, err)
	}
}

func TestPublicDisturbanceRates(t *testing.T) {
	wl, bl := sdpcm.DisturbanceRates(sdpcm.SuperDense)
	if math.Abs(wl-0.099) > 1e-3 || math.Abs(bl-0.115) > 1e-3 {
		t.Fatalf("super dense rates = %v/%v", wl, bl)
	}
	if _, bl := sdpcm.DisturbanceRates(sdpcm.DINEnhanced); bl != 0 {
		t.Fatal("DIN layout must be bit-line WD-free")
	}
	if wl, _ := sdpcm.DisturbanceRatesAt(2, 2, 54); wl > 0.001 {
		t.Fatal("54nm must be effectively WD-free")
	}
}

func TestPublicCapacityComparison(t *testing.T) {
	_, din, imp := sdpcm.CapacityComparison(4)
	if math.Abs(din-2.222) > 0.01 || math.Abs(imp-0.80) > 0.01 {
		t.Fatalf("capacity comparison = %v GB, %v", din, imp)
	}
}

func TestPublicSchemeComposition(t *testing.T) {
	s := sdpcm.AllThree(6, sdpcm.Tag23)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CapacityFraction() <= sdpcm.DIN().CapacityFraction() {
		t.Fatal("LazyC+PreRead+(2:3) must out-capacity DIN")
	}
	// Custom composition through exported fields.
	custom := sdpcm.Baseline()
	custom.Name = "custom"
	custom.PreRead = true
	custom.Tag = sdpcm.Tag34
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExperimentTables(t *testing.T) {
	tb := sdpcm.Table1()
	if len(tb.Rows()) != 2 {
		t.Fatal("Table1 must have two rows")
	}
	o := sdpcm.ExperimentOptions{
		Base:       sdpcm.SweepBase{RefsPerCore: 800, Cores: 2, MemPages: 1 << 15, RegionPages: 512, Seed: 1},
		Benchmarks: []string{"lbm"},
	}
	fig, err := sdpcm.Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Get("lbm", "ECP-0") <= 0 {
		t.Fatalf("Fig12 produced no corrections:\n%s", fig)
	}
}

// TestPublicSweepRunner drives the declarative sweep executor through the
// facade: a grid shared across two figure calls deduplicates points, a
// parallel run matches a sequential one byte-for-byte, and the observer
// sees every point.
func TestPublicSweepRunner(t *testing.T) {
	o := sdpcm.ExperimentOptions{
		Base:       sdpcm.SweepBase{RefsPerCore: 800, Cores: 2, MemPages: 1 << 15, RegionPages: 512, Seed: 1},
		Benchmarks: []string{"lbm"},
	}
	events := 0
	o.Observer = sdpcm.SweepObserverFunc(func(sdpcm.SweepEvent) { events++ })
	o.Exec = &sdpcm.SweepRunner{}
	// Fig12 and Fig13 declare the same ECP grid: the second figure must be
	// served entirely from the shared cache.
	t12, err := sdpcm.Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	after12 := o.Exec.Stats()
	t13, err := sdpcm.Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Exec.Stats()
	if st.SimRuns != after12.SimRuns {
		t.Errorf("Fig13 simulated %d new points after Fig12, want 0", st.SimRuns-after12.SimRuns)
	}
	if events != st.Points {
		t.Errorf("observer saw %d events for %d points", events, st.Points)
	}
	// A sequential uncached executor reproduces both tables byte-for-byte.
	seq := o
	seq.Observer = nil
	seq.Exec = &sdpcm.SweepRunner{Workers: 1, NoCache: true}
	s12, err := sdpcm.Fig12(seq)
	if err != nil {
		t.Fatal(err)
	}
	s13, err := sdpcm.Fig13(seq)
	if err != nil {
		t.Fatal(err)
	}
	if t12.String() != s12.String() || t13.String() != s13.String() {
		t.Error("parallel cached tables differ from sequential uncached tables")
	}
}

// TestPublicMetricsSurviveMemoCache runs the same figure twice through one
// shared executor with metrics collection on: the rerun is served entirely
// from the memo cache, yet every cached point still carries the identical
// metrics snapshot it was first simulated with.
func TestPublicMetricsSurviveMemoCache(t *testing.T) {
	o := sdpcm.ExperimentOptions{
		Base: sdpcm.SweepBase{RefsPerCore: 800, Cores: 2, MemPages: 1 << 15, RegionPages: 512, Seed: 1,
			CollectMetrics: true},
		Benchmarks: []string{"lbm"},
	}
	key := func(ev sdpcm.SweepEvent) string {
		return fmt.Sprintf("%s/%s/ecp%d", ev.Spec.Scheme.Name, ev.Spec.Bench, ev.Spec.Scheme.ECPEntries)
	}
	first := map[string]*sdpcm.MetricsSnapshot{}
	collect := func(into map[string]*sdpcm.MetricsSnapshot, wantCached bool) sdpcm.SweepObserver {
		return sdpcm.SweepObserverFunc(func(ev sdpcm.SweepEvent) {
			if ev.Err != nil {
				t.Errorf("point %s failed: %v", key(ev), ev.Err)
				return
			}
			if ev.Cached != wantCached {
				t.Errorf("point %s cached=%v, want %v", key(ev), ev.Cached, wantCached)
			}
			if ev.Result == nil || ev.Result.Metrics == nil {
				t.Errorf("point %s missing metrics snapshot (cached=%v)", key(ev), ev.Cached)
				return
			}
			into[key(ev)] = ev.Result.Metrics
		})
	}
	o.Observer = collect(first, false)
	o.Exec = &sdpcm.SweepRunner{}
	if _, err := sdpcm.Fig12(o); err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no points observed")
	}
	second := map[string]*sdpcm.MetricsSnapshot{}
	// Options.Observer is per figure call — several jobs can share one
	// Exec and still keep separate event streams.
	o.Observer = collect(second, true)
	if _, err := sdpcm.Fig12(o); err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("rerun observed %d points, want %d", len(second), len(first))
	}
	for key, snap := range first {
		if !snap.Equal(second[key]) {
			t.Errorf("cached snapshot for %s differs from the original", key)
		}
	}
}

// TestPublicSchemeRegistry exercises the registry surface: every listed
// name resolves to a valid scheme, and the built-in imdb scheme (the
// in-module barrier) runs end to end.
func TestPublicSchemeRegistry(t *testing.T) {
	names := sdpcm.SchemeNames()
	if len(names) < 14 {
		t.Fatalf("SchemeNames() = %v, want the 14 built-ins", names)
	}
	for _, n := range names {
		s, err := sdpcm.SchemeByName(n, 0)
		if err != nil {
			t.Fatalf("SchemeByName(%q): %v", n, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := sdpcm.SchemeByName("imdb", 0); err != nil {
		t.Fatalf("imdb scheme not registered: %v", err)
	}
	s, _ := sdpcm.SchemeByName("imdb", 0)
	res, err := sdpcm.Run(sdpcm.SimConfig{
		Scheme:         s,
		Mix:            sdpcm.HomogeneousMix("mcf", 4),
		RefsPerCore:    2500,
		MemPages:       1 << 16,
		RegionPages:    1024,
		Seed:           5,
		CheckIntegrity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MC.LazyRecords == 0 {
		t.Fatal("imdb barrier absorbed nothing")
	}
}

var updateReadme = flag.Bool("update-readme", false, "rewrite README.md's registry-generated scheme table")

// TestReadmeSchemeTable keeps README.md's scheme table in sync with the
// live registry. Regenerate with:
//
//	go test -run TestReadmeSchemeTable -update-readme
func TestReadmeSchemeTable(t *testing.T) {
	const begin, end = "<!-- schemes:begin -->", "<!-- schemes:end -->"
	var b strings.Builder
	b.WriteString(begin + "\n")
	b.WriteString("| registry name | aliases | scheme |\n|---|---|---|\n")
	for _, n := range sdpcm.SchemeNames() {
		s, err := sdpcm.SchemeByName(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		aliases := strings.Join(sdpcm.SchemeAliases(n), ", ")
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", n, aliases, s.Name)
	}
	b.WriteString(end)
	want := b.String()

	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %s/%s markers", begin, end)
	}
	got := readme[i : j+len(end)]
	if got == want {
		return
	}
	if !*updateReadme {
		t.Fatalf("README.md scheme table is stale; regenerate with:\n\tgo test -run TestReadmeSchemeTable -update-readme\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := os.WriteFile("README.md", []byte(readme[:i]+want+readme[j+len(end):]), 0o644); err != nil {
		t.Fatal(err)
	}
}
