package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/snap"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

var updateCheckpointFixture = flag.Bool("update-checkpoint", false,
	"regenerate "+fixturePath+" (run after bumping checkpointVersion)")

// checkpointCfg exercises every checkpointed subsystem: ECP parking, the WD
// engine and heatmap, the DIN codec, wear leveling, the run's metrics
// registry with its event ring, and the integrity shadow.
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

// barrierCfg is checkpointCfg under the in-module barrier, so the
// checkpoint also carries the barrier's victim buffers mid-run.
func barrierCfg(t testing.TB) Config {
	t.Helper()
	s, err := core.ByName("imdb", 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointCfg()
	cfg.Scheme = s
	return cfg
}

// barrierCheckpointSHA256 pins the bytes of barrierCfg's mid-run
// checkpoint, buffered repairs included.
const barrierCheckpointSHA256 = "30cf0715b6a90de038f1a71a902eac5b7bb988eb80bdd615677464526319786c"

// TestResumeBarrier is the resume contract under the in-module barrier: the
// mid-run checkpoint holds buffered repairs, and the run resumed from it
// matches the uninterrupted one.
func TestResumeBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("barrier resume is not short")
	}
	base := barrierCfg(t)
	want := fullFingerprint(t, run(t, base))

	w := base
	w.CheckpointPath = filepath.Join(t.TempDir(), "mid.ckpt")
	w.CheckpointEvery = midRunInterval
	run(t, w)
	data, err := os.ReadFile(w.CheckpointPath)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != barrierCheckpointSHA256 {
		t.Errorf("barrier checkpoint sha256 = %s, want %s", got, barrierCheckpointSHA256)
	}
	r := base
	r.ResumeFrom = w.CheckpointPath
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
// to fall back to a cold start. A different hard-error lifetime is a
// different configuration too: the aged DIMM parks fewer errors.
func TestResumeConfigMismatch(t *testing.T) {
	cases := []struct {
		name         string
		write, other func(*Config)
	}{
		{"seed", func(*Config) {}, func(c *Config) { c.Seed++ }},
		{"lifetime",
			func(c *Config) { c.Scheme.HardErrorLifetime = 0.1 },
			func(c *Config) { c.Scheme.HardErrorLifetime = 1.0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckptPath := filepath.Join(t.TempDir(), "mismatch.ckpt")
			w := checkpointCfg()
			tc.write(&w)
			w.CheckpointPath = ckptPath
			w.CheckpointEvery = midRunInterval
			run(t, w)

			r := checkpointCfg()
			tc.other(&r)
			r.ResumeFrom = ckptPath
			_, err := Run(r)
			if !errors.Is(err, ErrResume) {
				t.Fatalf("resume with a different %s: err = %v, want ErrResume", tc.name, err)
			}
			if !strings.Contains(err.Error(), "different configuration") {
				t.Fatalf("error does not explain the mismatch: %v", err)
			}
		})
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

// fixtureCfg is the golden checkpoint's configuration and FuzzResume's run:
// small enough to simulate per fuzz input, yet touching every serialized
// subsystem (ECP parking, the WD engine and heatmap, the DIN codec, wear
// leveling, the run's metrics registry with its event ring) except the
// integrity shadow — under fuzzing a changed byte of stored line data would
// rightly fail that check, which is a corrupted run, not a decoder fault.
// The resume tests on checkpointCfg and multiCfg cover the shadow. Changing
// this configuration requires regenerating the fixture.
func fixtureCfg() Config {
	return Config{
		Scheme:         core.AllThree(6, alloc.Tag23),
		Mix:            workload.HomogeneousMix("mcf", 2),
		RefsPerCore:    50,
		MemPages:       1 << 12,
		RegionPages:    1024,
		WriteQueueCap:  8,
		Seed:           5,
		CollectMetrics: true,
		TraceEvents:    8,
		HeatmapRegions: 2,
		WearLevelPsi:   8,
	}
}

const fixturePath = "testdata/checkpoint_v7.bin"

// v1FixturePath … v6FixturePath are checkpoints of fixtureCfg in the
// original version-1 single-DIMM container, the version-3 container with a
// registry per bank, the version-4 one with a controller per bank, the
// version-5 one whose queue entries carry pre-read line buffers and the
// version-6 one with subsystem presence flags, kept to pin that older files
// are refused.
const (
	v1FixturePath = "testdata/checkpoint_v1.bin"
	v3FixturePath = "testdata/checkpoint_v3.bin"
	v4FixturePath = "testdata/checkpoint_v4.bin"
	v5FixturePath = "testdata/checkpoint_v5.bin"
	v6FixturePath = "testdata/checkpoint_v6.bin"
)

// fixtureInterval fires once at 51 of the 100 total references.
const fixtureInterval = 51

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

// TestCheckpointFixtureBytes: checkpointing fixtureCfg today writes the
// committed fixture byte for byte, so a change that claims to keep the
// checkpoint format (or the RNG stream) is checked, not asserted.
func TestCheckpointFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("golden checkpoint missing: %v", err)
	}
	w := fixtureCfg()
	w.CheckpointPath = filepath.Join(t.TempDir(), "fixture.ckpt")
	w.CheckpointEvery = fixtureInterval
	run(t, w)
	got, err := os.ReadFile(w.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of fixtureCfg (%d bytes) differs from %s (%d bytes)", len(got), fixturePath, len(want))
	}
}

// withVersion writes a copy of the current-format fixture whose header
// claims version v and returns its path.
func withVersion(t *testing.T, v byte) string {
	t.Helper()
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("golden checkpoint missing: %v", err)
	}
	bad := append([]byte(nil), data...)
	// Version field: u32 LE at bytes 4..8 of the header.
	bad[4], bad[5], bad[6], bad[7] = v, 0, 0, 0
	path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.ckpt", v))
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointVersionError: a file of any other format version — the
// committed v1, v3, v4, v5 and v6 files, a v2 (the retired multi-module
// container) or a future version — fails with a typed, versioned error under
// both a default and a topology configuration: never a panic and never
// silently decoded garbage.
func TestCheckpointVersionError(t *testing.T) {
	files := []struct {
		name string
		path string
		got  uint32
	}{
		{"v1", v1FixturePath, 1},
		{"v2", withVersion(t, 2), 2},
		{"v3", v3FixturePath, 3},
		{"v4", v4FixturePath, 4},
		{"v5", v5FixturePath, 5},
		{"v6", v6FixturePath, 6},
		{"v99", withVersion(t, 99), 99},
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", fixtureCfg()},
		{"topology", multiCfg()},
	}
	for _, f := range files {
		for _, c := range cfgs {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				cfg := c.cfg
				cfg.ResumeFrom = f.path
				_, err := Run(cfg)
				if !errors.Is(err, ErrResume) {
					t.Fatalf("err = %v, want ErrResume", err)
				}
				var ve *snap.VersionError
				if !errors.As(err, &ve) || ve.Got != f.got || ve.Want != checkpointVersion {
					t.Fatalf("err = %v, want *snap.VersionError with Got=%d Want=%d", err, f.got, checkpointVersion)
				}
				if want := fmt.Sprintf("unsupported checkpoint version %d", f.got); !strings.Contains(err.Error(), want) {
					t.Fatalf("error message %q lacks %q", err, want)
				}
			})
		}
	}
}
