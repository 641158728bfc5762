package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/sim"
	"sdpcm/internal/topo"
	"sdpcm/internal/workload"
)

// FuzzJobSpec feeds arbitrary bytes to the POST /api/v1/jobs decoder and
// Validate. Neither may panic, and a spec both accept must survive a
// re-encode: decoding its JSON gives an equal spec (nil and empty
// Benchmarks/Schemes are the same request, since both encode as absent).
// The corpus holds the spec bodies of the serve tests.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []JobSpec{smallSpec(), {Experiment: "fig11", TraceEvents: 64, HeatmapRegions: 4}} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	topoSpec := smallSpec()
	topoSpec.Topology = topo.Demo2()
	b, err := json.Marshal(topoSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, body := range []string{
		`{"experiment":"fig99"}`,
		`{"experiment":"fig4","benchmarks":["nope"]}`,
		`{"experiment":"fig4","bogus":1}`,
		`{"experiment":"fig4","shards":4}`,
		`{`,
		`{"experiment":"fig4"} {"experiment":"fig99","bogus":1} garbage`,
		`{"experiment":"fig4","topology":{"modules":[{"name":"m","scheme":"nope"}]}}`,
		`{"experiment":"fig4","topology":{"modules":[{"name":"m"},{"name":"m"}]}}`,
		`{"experiment":"fig4","topology":{"modules":[{"pages":4611686018427387904},{"pages":4611686018427387904},` +
			`{"pages":4611686018427387904},{"pages":4611686018429485056}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil || spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s is refused: %v", enc, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded spec %s fails Validate: %v", enc, err)
		}
		if len(spec.Benchmarks) == 0 {
			spec.Benchmarks = nil
		}
		if len(spec.Schemes) == 0 {
			spec.Schemes = nil
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("re-encode changed the spec:\n  %+v\n  %+v", spec, again)
		}
	})
}

// FuzzDiskStoreLoad puts arbitrary bytes in a store entry file. Load must
// either miss, counting the entry corrupt, or return exactly the Result that
// was stored under the key. The corpus holds the pristine entry and the
// damaged forms of TestDiskStoreCorruptEntryReSimulated.
func FuzzDiskStoreLoad(f *testing.F) {
	const key = "fuzz-key"
	want, err := sim.Run(sim.Config{
		Scheme:         core.LazyC(4),
		Mix:            workload.HomogeneousMix("lbm", 2),
		RefsPerCore:    200,
		MemPages:       1 << 12,
		RegionPages:    256,
		Seed:           7,
		CollectMetrics: true,
		TraceEvents:    16,
		HeatmapRegions: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	s, err := OpenDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Store(key, want); err != nil {
		f.Fatal(err)
	}
	pristine, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	// Compare against the stored form: JSON does not keep nil and empty
	// slices apart.
	want, ok := s.Load(key)
	if !ok {
		f.Fatal("pristine entry does not load")
	}
	var env envelope
	if err := json.Unmarshal(pristine, &env); err != nil {
		f.Fatal(err)
	}
	tampered, bumped := env, env
	tampered.Result = json.RawMessage(`{"CPI": 0.001}`)
	bumped.Version = storeVersion + 1
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Add([]byte("{not json"))
	for _, e := range []envelope{tampered, bumped} {
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Each fuzz call overwrites the one entry and loads it through a fresh
	// store, so the counters are the call's own.
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenDiskStore(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := st.Load(key)
		if ok {
			if !reflect.DeepEqual(got, want) {
				t.Fatal("Load returned a result other than the stored one")
			}
			return
		}
		if ss := st.Stats(); ss.Misses != 1 || ss.Corrupt != 1 {
			t.Fatalf("damaged entry: stats %+v, want one corrupt miss", ss)
		}
	})
}
