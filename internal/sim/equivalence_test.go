package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/topo"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

var updateEquivalence = flag.Bool("update-equivalence", false,
	"rewrite testdata/equivalence.golden from the current simulator")

// equivalenceFixture is the pinned simulator behaviour: one fingerprint per
// Figure 11 scheme × benchmark, covering the full Result (controller,
// device, ECP and WD statistics, cycle counts, CPI) plus the rendered
// metrics snapshot, followed by the pinnedRuns points. Any refactor of the write path must reproduce these
// byte-for-byte; refresh intentional simulator changes with
//
//	go test ./internal/sim -run TestWritePathEquivalence -update-equivalence
//
// Last regenerated when per-run RNG became per-bank labeled streams
// (root → "mc" → "bank-<b>"), a sanctioned one-time stochastic change.
const equivalenceFixture = "testdata/equivalence.golden"

func equivalencePoints() []struct {
	scheme core.Scheme
	bench  string
} {
	var pts []struct {
		scheme core.Scheme
		bench  string
	}
	for _, s := range core.Figure11Roster() {
		for _, bench := range []string{"lbm", "mcf"} {
			pts = append(pts, struct {
				scheme core.Scheme
				bench  string
			}{s, bench})
		}
	}
	return pts
}

// sweepCfg is the configuration of one Figure 11 sweep point.
func sweepCfg(s core.Scheme, bench string) Config {
	return Config{
		Scheme:         s,
		Mix:            workload.HomogeneousMix(bench, 4),
		RefsPerCore:    4000,
		MemPages:       1 << 16,
		RegionPages:    1024,
		WriteQueueCap:  8,
		Seed:           42,
		CollectMetrics: true,
	}
}

// pinnedRuns extends the fixture beyond the Figure 11 sweep to the paths it
// does not reach: the all-subsystems wear-leveled run (scored with the
// heatmap), two-module topology runs (scored with the per-module
// breakdown), one of them with a 4-bank far module, the §6.8
// write-cancellation drain, alone and under LazyCorrection, and the
// in-module barrier on the default module and on one 32-bank module.
func pinnedRuns() []struct {
	name string
	cfg  Config
	fp   func(*testing.T, Result) string
} {
	banks4 := multiCfg()
	banks4.Topology = topo.Demo2()
	banks4.Topology.Modules[1].Banks = 4
	imdb32 := sweepCfg(core.IMDB(6), "mcf")
	imdb32.Topology = &topo.Spec{Modules: []topo.Module{{Banks: 32}}}
	return []struct {
		name string
		cfg  Config
		fp   func(*testing.T, Result) string
	}{
		{"pin|checkpointCfg", checkpointCfg(), fullFingerprint},
		{"pin|multiCfg", multiCfg(), multiFingerprint},
		{"pin|multiCfg-far-banks4", banks4, multiFingerprint},
		{"pin|WC|mcf", sweepCfg(core.WC(), "mcf"), fingerprint},
		{"pin|WC+LazyC|mcf", sweepCfg(core.WCLazyC(6), "mcf"), fingerprint},
		{"pin|IMDB|mcf", sweepCfg(core.IMDB(6), "mcf"), fingerprint},
		{"pin|IMDB-banks32|mcf", imdb32, multiFingerprint},
	}
}

// flatResult mirrors Result's fields in declaration order, so its %+v
// rendering is byte-identical to the Result rendering the fixture hashes
// were pinned against. Modules (nil under the default topology) is
// deliberately absent; multiFingerprint covers it.
type flatResult struct {
	Scheme       string
	Mix          string
	Cycles       uint64
	Instructions uint64
	CPI          float64

	MC  mc.Stats
	Dev pcm.Stats
	ECP ecp.Stats
	WD  wd.Stats

	TLBMisses  uint64
	PageFaults uint64
	WearMoves  uint64

	Metrics *metrics.Snapshot
	Heatmap *wd.HeatmapSnapshot
}

// fingerprint renders every observable field of a Result into a stable hash:
// the flat statistics via %+v (Metrics and Heatmap pointers excluded), the
// metrics snapshot via its deterministic JSON export.
func fingerprint(t *testing.T, r Result) string {
	t.Helper()
	flat := flatResult{
		Scheme: r.Scheme, Mix: r.Mix, Cycles: r.Cycles,
		Instructions: r.Instructions, CPI: r.CPI,
		MC: r.MC, Dev: r.Dev, ECP: r.ECP, WD: r.WD,
		TLBMisses: r.TLBMisses, PageFaults: r.PageFaults, WearMoves: r.WearMoves,
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", flat)
	if r.Metrics != nil {
		var buf bytes.Buffer
		if err := r.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fullFingerprint extends fingerprint with the heatmap, so byte-identical
// stats, metrics snapshot, event trace and heatmap are pinned by one hash.
func fullFingerprint(t *testing.T, r Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", fingerprint(t, r))
	if r.Heatmap != nil {
		b, err := json.Marshal(r.Heatmap)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestWritePathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is not short")
	}
	var out strings.Builder
	for _, pt := range equivalencePoints() {
		fp := fingerprint(t, run(t, sweepCfg(pt.scheme, pt.bench)))
		fmt.Fprintf(&out, "%s|%s %s\n", pt.scheme.Name, pt.bench, fp)
	}
	for _, pt := range pinnedRuns() {
		fmt.Fprintf(&out, "%s %s\n", pt.name, pt.fp(t, run(t, pt.cfg)))
	}
	got := out.String()
	if *updateEquivalence {
		if err := os.MkdirAll(filepath.Dir(equivalenceFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivalenceFixture, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(equivalenceFixture)
	if err != nil {
		t.Fatalf("%v (generate with -update-equivalence)", err)
	}
	if got == string(want) {
		return
	}
	// Report the drifted points by name, not just a hash mismatch.
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("fixture has %d points, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("behaviour drift at %s (fixture %s)",
				strings.SplitN(gotLines[i], " ", 2)[0], wantLines[i])
		}
	}
}
