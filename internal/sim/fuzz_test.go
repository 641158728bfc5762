package sim

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// FuzzResume feeds arbitrary bytes to Run as a resume checkpoint of
// fixtureCfg. Run must either finish or fail with an error wrapping
// ErrResume; a panic, a hang or any other error fails. The corpus holds the
// current fixture (a real checkpoint of this configuration, so mutations
// reach every subsystem decoder), the retired v1 fixture and truncations of
// the current one.
func FuzzResume(f *testing.F) {
	cur, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(v1FixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	fuzzResume(f, fixtureCfg, cur)
}

// TestResumeCorpusReachesDecoders: each committed FuzzResume regression
// input is the current fixture with one field corrupted, so it must be
// refused by the decoder it was found in, not by the version check. A
// checkpoint version bump carries them by applying the same corruption to
// the new fixture.
func TestResumeCorpusReachesDecoders(t *testing.T) {
	for name, want := range map[string]string{
		"alloc-tag-zero":        "alloc: checkpoint holds invalid tag",
		"vm-frame-out-of-range": "vm: checkpoint pool frame",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzResume", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := fixtureCfg()
		cfg.ResumeFrom = path
		if _, err := Run(cfg); !errors.Is(err, ErrResume) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want ErrResume from %q", name, err, want)
		}
	}
}

// FuzzResumeTopology is FuzzResume on the two-module demo topology, whose
// checkpoint holds one device, controller and allocator per module.
func FuzzResumeTopology(f *testing.F) {
	mk := func() Config {
		cfg := fixtureCfg()
		cfg.Scheme = core.Baseline()
		cfg.Topology = topo.Demo2()
		cfg.WearLevelPsi = 0
		return cfg
	}
	fuzzResume(f, mk, checkpointOf(f, mk))
}

// FuzzResumeBarrier is FuzzResume under the in-module barrier, whose
// checkpoint holds the barrier's per-bank victim buffers.
func FuzzResumeBarrier(f *testing.F) {
	s, err := core.ByName("imdb", 6)
	if err != nil {
		f.Fatal(err)
	}
	mk := func() Config {
		cfg := fixtureCfg()
		cfg.Scheme = s
		return cfg
	}
	fuzzResume(f, mk, checkpointOf(f, mk))
}

// FuzzResumeReplay is FuzzResume on a trace-replay run, whose checkpoint
// holds write-back mutators in place of generators and resumes by
// fast-forwarding the streams.
func FuzzResumeReplay(f *testing.F) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, 11)
	if err != nil {
		f.Fatal(err)
	}
	recs := workload.Capture(g, 100)
	mk := func() Config {
		cfg := fixtureCfg()
		cfg.Streams = []trace.Stream{trace.NewSliceStream(recs)}
		cfg.RefsPerCore = len(recs)
		return cfg
	}
	fuzzResume(f, mk, checkpointOf(f, mk))
}

// checkpointOf runs the configuration once with a mid-run checkpoint and
// returns the checkpoint's bytes, the seed a resume fuzzer mutates, after
// checking that a resume from them succeeds.
func checkpointOf(f *testing.F, mk func() Config) []byte {
	cfg := mk()
	cfg.CheckpointPath = filepath.Join(f.TempDir(), "seed.ckpt")
	cfg.CheckpointEvery = fixtureInterval
	if _, err := Run(cfg); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		f.Fatal(err)
	}
	r := mk()
	r.ResumeFrom = cfg.CheckpointPath
	if _, err := Run(r); err != nil {
		f.Fatalf("resuming the seed checkpoint: %v", err)
	}
	return data
}

// fuzzResume seeds the corpus with a real checkpoint of the configuration
// and its truncations, then requires every resume from fuzzed bytes to
// finish or fail with an error wrapping ErrResume.
func fuzzResume(f *testing.F, mk func() Config, ckpt []byte) {
	f.Add(ckpt)
	for _, n := range []int{0, 4, 8, 64, len(ckpt) / 2, len(ckpt) - 1} {
		f.Add(ckpt[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := mk()
		cfg.ResumeFrom = path
		if _, err := Run(cfg); err != nil && !errors.Is(err, ErrResume) {
			t.Fatalf("error does not wrap ErrResume: %v", err)
		}
	})
}
