package sim

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

var updateCheckpointFixture = flag.Bool("update-checkpoint", false,
	"regenerate testdata/checkpoint_v1.bin (run after bumping checkpointVersion)")

// checkpointCfg exercises every checkpointed subsystem: ECP parking, the WD
// engine and heatmap, the DIN codec, wear leveling, metrics registries with
// event rings, and the integrity shadow.
func checkpointCfg() Config {
	cfg := quickCfg(core.AllThree(6, alloc.Tag23), "mcf")
	cfg.RefsPerCore = 2000
	cfg.CollectMetrics = true
	cfg.TraceEvents = 32
	cfg.HeatmapRegions = 8
	cfg.CheckIntegrity = true
	cfg.WearLevelPsi = 64
	return cfg
}

// totalRefs of checkpointCfg is 4 cores × 2000 = 8000; an interval of 4101
// fires exactly once, at ~51% of the run, and is never overwritten — an
// in-process stand-in for killing the run mid-flight.
const midRunInterval = 4101

// TestResumeDeterminismMatrix is the resume contract: a run resumed from a
// mid-run checkpoint produces a Result byte-identical to the uninterrupted
// run, and the checkpointing run itself is unperturbed.
func TestResumeDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("resume matrix is not short")
	}
	base := checkpointCfg()
	want := fullFingerprint(t, run(t, base))

	ckptPath := filepath.Join(t.TempDir(), "mid.ckpt")
	w := base
	w.CheckpointPath = ckptPath
	w.CheckpointEvery = midRunInterval
	if got := fullFingerprint(t, run(t, w)); got != want {
		t.Errorf("checkpointing perturbed the run: %s != %s", got, want)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	r := base
	r.ResumeFrom = ckptPath
	if got := fullFingerprint(t, run(t, r)); got != want {
		t.Errorf("resumed fingerprint %s != %s", got, want)
	}
}

// TestResumeTraceReplay covers the replay path: caller-provided streams are
// fast-forwarded by consumed-record count and the write-back mutators
// restore their RNG positions.
func TestResumeTraceReplay(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	recs := workload.Capture(g, 3000)
	mk := func() Config {
		return Config{
			Scheme:         core.LazyC(6),
			Streams:        []trace.Stream{trace.NewSliceStream(recs)},
			RefsPerCore:    len(recs),
			MemPages:       1 << 16,
			RegionPages:    1024,
			Seed:           13,
			CollectMetrics: true,
		}
	}
	want := fingerprint(t, run(t, mk()))

	ckptPath := filepath.Join(t.TempDir(), "replay.ckpt")
	w := mk()
	w.CheckpointPath = ckptPath
	w.CheckpointEvery = 1501 // once, at ~50% of the 3000 records
	run(t, w)

	r := mk()
	r.ResumeFrom = ckptPath
	if got := fingerprint(t, run(t, r)); got != want {
		t.Errorf("replay resume diverged: %s != %s", got, want)
	}
}

// TestResumeConfigMismatch: a checkpoint must refuse to resume a different
// configuration, with an error the sweep runner can recognise (ErrResume)
// to fall back to a cold start.
func TestResumeConfigMismatch(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "mismatch.ckpt")
	w := checkpointCfg()
	w.CheckpointPath = ckptPath
	w.CheckpointEvery = midRunInterval
	run(t, w)

	r := checkpointCfg()
	r.Seed++
	r.ResumeFrom = ckptPath
	_, err := Run(r)
	if !errors.Is(err, ErrResume) {
		t.Fatalf("resume with different seed: err = %v, want ErrResume", err)
	}
	if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}
}

// TestResumeMissingFile: a nonexistent checkpoint wraps ErrResume too.
func TestResumeMissingFile(t *testing.T) {
	cfg := quickCfg(core.Baseline(), "lbm")
	cfg.RefsPerCore = 100
	cfg.ResumeFrom = filepath.Join(t.TempDir(), "absent.ckpt")
	if _, err := Run(cfg); !errors.Is(err, ErrResume) {
		t.Fatalf("err = %v, want ErrResume", err)
	}
}

// fixtureCfg is the golden checkpoint's configuration: small but touching
// every serialized subsystem. Changing it requires regenerating the fixture.
func fixtureCfg() Config {
	cfg := quickCfg(core.AllThree(6, alloc.Tag23), "mcf")
	cfg.RefsPerCore = 400
	cfg.CollectMetrics = true
	cfg.TraceEvents = 16
	cfg.HeatmapRegions = 4
	cfg.CheckIntegrity = true
	cfg.WearLevelPsi = 64
	return cfg
}

const fixturePath = "testdata/checkpoint_v1.bin"

// fixtureInterval fires once at 801 of the 1600 total references.
const fixtureInterval = 801

// TestCheckpointFixtureCompat decodes the committed golden checkpoint on
// every test run, pinning the on-disk format: an incompatible layout change
// fails here (with a decode error, not a panic or silent garbage) until
// checkpointVersion is bumped and the fixture regenerated with
// `go test ./internal/sim -run Fixture -update-checkpoint`.
func TestCheckpointFixtureCompat(t *testing.T) {
	if *updateCheckpointFixture {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		w := fixtureCfg()
		w.CheckpointPath = fixturePath
		w.CheckpointEvery = fixtureInterval
		run(t, w)
		t.Logf("regenerated %s", fixturePath)
	}
	if _, err := os.Stat(fixturePath); err != nil {
		t.Fatalf("golden checkpoint missing (regenerate with -update-checkpoint): %v", err)
	}

	want := fullFingerprint(t, run(t, fixtureCfg()))
	r := fixtureCfg()
	r.ResumeFrom = fixturePath
	if got := fullFingerprint(t, run(t, r)); got != want {
		t.Errorf("resume from golden checkpoint diverged from the uninterrupted run: %s != %s", got, want)
	}
}

// TestCheckpointVersionError: a future-versioned file fails with a typed,
// versioned error — never a panic and never silently decoded garbage.
func TestCheckpointVersionError(t *testing.T) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("golden checkpoint missing: %v", err)
	}
	bad := append([]byte(nil), data...)
	// Version field: u32 LE at bytes 4..8 of the header.
	bad[4], bad[5], bad[6], bad[7] = 99, 0, 0, 0
	badPath := filepath.Join(t.TempDir(), "future.ckpt")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := fixtureCfg()
	cfg.ResumeFrom = badPath
	_, err = Run(cfg)
	if !errors.Is(err, ErrResume) {
		t.Fatalf("err = %v, want ErrResume", err)
	}
	var ve *snap.VersionError
	if !errors.As(err, &ve) || ve.Got != 99 {
		t.Fatalf("err = %v, want *snap.VersionError with Got=99", err)
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint version 99") {
		t.Fatalf("error message %q lacks the versioned explanation", err)
	}
}

// TestCheckpointUnsupportedPolicy: an opaque stateful correction policy is
// refused up front rather than silently dropped across a resume.
func TestCheckpointUnsupportedPolicy(t *testing.T) {
	cfg := quickCfg(core.Baseline(), "lbm")
	cfg.RefsPerCore = 100
	cfg.Scheme.Policy = func(m *mc.Config) { m.Correction = opaquePolicy{} }
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	cfg.CheckpointEvery = 50
	if _, err := Run(cfg); !errors.Is(err, ErrCheckpointUnsupported) {
		t.Fatalf("err = %v, want ErrCheckpointUnsupported", err)
	}
	// The same configuration without checkpointing must still run.
	cfg.CheckpointPath, cfg.CheckpointEvery = "", 0
	run(t, cfg)
}

// opaquePolicy is a plugin correction policy that does not declare its
// state through mc.PolicyState.
type opaquePolicy struct{}

func (opaquePolicy) Absorb(ctx mc.PolicyContext, addr pcm.LineAddr, flips pcm.Mask, newBits []int, depth int) (int, bool) {
	return 0, false
}
