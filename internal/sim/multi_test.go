package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/snap"
	"sdpcm/internal/topo"
	"sdpcm/internal/workload"
)

// multiCfg is the canonical two-module run: a near VnC DIMM plus a far
// CXL-latency LazyC module, with every optional subsystem on so the whole
// state surface is exercised.
func multiCfg() Config {
	return Config{
		Scheme:         core.Baseline(),
		Mix:            workload.HomogeneousMix("mcf", 4),
		RefsPerCore:    2000,
		MemPages:       1 << 16,
		RegionPages:    1024,
		WriteQueueCap:  8,
		Seed:           7,
		Topology:       topo.Demo2(),
		CollectMetrics: true,
		TraceEvents:    32,
		HeatmapRegions: 8,
		CheckIntegrity: true,
	}
}

// multiFingerprint extends fullFingerprint with the per-module results —
// the field the flat fingerprint deliberately ignores.
func multiFingerprint(t *testing.T, r Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\n", fullFingerprint(t, r), r.Modules)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTopologyDefaultIsClassicPath: a nil spec and topo.Default() route to
// the identical single-DIMM simulation — same Result, no Modules breakdown.
func TestTopologyDefaultIsClassicPath(t *testing.T) {
	base := quickCfg(core.LazyC(6), "mcf")
	withDefault := base
	withDefault.Topology = topo.Default()
	a, b := run(t, base), run(t, withDefault)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Topology=Default() diverged from Topology=nil")
	}
	if len(a.Modules) != 0 {
		t.Fatalf("classic run grew a module breakdown: %+v", a.Modules)
	}
}

// TestMultiModuleRun drives the two-module demo end to end and checks the
// topology semantics hold: both modules see traffic, each reports its own
// scheme, the far module's link latency is echoed, the heatmap stacks both
// modules' banks, and the global stats are the module sums.
func TestMultiModuleRun(t *testing.T) {
	r := run(t, multiCfg())
	if len(r.Modules) != 2 {
		t.Fatalf("Modules = %+v, want 2 entries", r.Modules)
	}
	near, far := r.Modules[0], r.Modules[1]
	if near.Name != "near" || near.Scheme != "baseline" { // "vnc" aliases the baseline scheme
		t.Fatalf("near module = %+v", near)
	}
	if far.Name != "far" || !strings.HasPrefix(far.Scheme, "LazyC") || far.LinkCycles != 600 {
		t.Fatalf("far module = %+v", far)
	}
	if near.MC.WriteOps == 0 || far.MC.WriteOps == 0 {
		t.Fatalf("a module saw no writes: near %d, far %d", near.MC.WriteOps, far.MC.WriteOps)
	}
	if got := near.MC.WriteOps + far.MC.WriteOps; got != r.MC.WriteOps {
		t.Fatalf("module write ops %d do not sum to the global %d", got, r.MC.WriteOps)
	}
	// VnC corrects eagerly, LazyC parks: the per-write correction rates must
	// reflect each module's own scheme.
	if !(near.CorrectionsPerWrite() > far.CorrectionsPerWrite()) {
		t.Fatalf("VnC module corr/write %f must exceed LazyC's %f",
			near.CorrectionsPerWrite(), far.CorrectionsPerWrite())
	}
	if r.Heatmap == nil || r.Heatmap.Banks != near.Banks+far.Banks {
		t.Fatalf("heatmap = %+v, want %d stacked banks", r.Heatmap, near.Banks+far.Banks)
	}
	if r.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
}

// TestMultiCheckpointResume: a two-module run resumed from a mid-run
// checkpoint is byte-identical to the uninterrupted run.
func TestMultiCheckpointResume(t *testing.T) {
	base := multiCfg()
	want := multiFingerprint(t, run(t, base))

	ckptPath := filepath.Join(t.TempDir(), "multi.ckpt")
	w := base
	w.CheckpointPath = ckptPath
	w.CheckpointEvery = 4101 // fires once, at ~51% of the 8000 total refs
	if got := multiFingerprint(t, run(t, w)); got != want {
		t.Errorf("checkpointing perturbed the run: %s != %s", got, want)
	}
	r := base
	r.ResumeFrom = ckptPath
	if got := multiFingerprint(t, run(t, r)); got != want {
		t.Errorf("resumed fingerprint %s != %s", got, want)
	}
}

// TestMultiCheckpointTopologyMismatch: a multi-module checkpoint encodes
// the canonical topology in its identity and refuses any other layout.
func TestMultiCheckpointTopologyMismatch(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "multi.ckpt")
	w := multiCfg()
	w.CheckpointPath = ckptPath
	w.CheckpointEvery = 4101
	run(t, w)

	r := multiCfg()
	r.Topology = &topo.Spec{Modules: []topo.Module{
		{Name: "near", Scheme: "vnc"},
		{Name: "far", Scheme: "lazyc", ECPEntries: 6, LinkCycles: 900}, // different link
	}}
	r.ResumeFrom = ckptPath
	_, err := Run(r)
	if !errors.Is(err, ErrResume) {
		t.Fatalf("resume under a different topology: err = %v, want ErrResume", err)
	}
	if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}
}

// TestMultiCheckpointRejectsV1File: feeding a classic single-DIMM (v1)
// checkpoint to a topology run fails with the typed version error — the
// multi container bumped the snap version precisely so the two formats can
// never be confused.
func TestMultiCheckpointRejectsV1File(t *testing.T) {
	cfg := multiCfg()
	cfg.ResumeFrom = fixturePath // the committed checkpoint_v1.bin golden
	_, err := Run(cfg)
	if !errors.Is(err, ErrResume) {
		t.Fatalf("err = %v, want ErrResume", err)
	}
	var ve *snap.VersionError
	if !errors.As(err, &ve) || ve.Got != checkpointVersion {
		t.Fatalf("err = %v, want *snap.VersionError with Got=%d", err, checkpointVersion)
	}
}

// TestMultiRejectsWearLeveling: intra-row wear leveling is a single-DIMM
// feature; a topology run must refuse it loudly instead of ignoring it.
func TestMultiRejectsWearLeveling(t *testing.T) {
	cfg := multiCfg()
	cfg.WearLevelPsi = 64
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "wear leveling") {
		t.Fatalf("err = %v, want a wear-leveling rejection", err)
	}
}

// TestMultiRejectsBadSpec: spec validation runs before any module is built.
func TestMultiRejectsBadSpec(t *testing.T) {
	cfg := multiCfg()
	cfg.Topology = &topo.Spec{Modules: []topo.Module{{Name: "m", Scheme: "nope"}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown module scheme must fail")
	}
}
