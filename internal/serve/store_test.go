package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/runner"
	"sdpcm/internal/sim"
)

// smallBase is a fast, deterministic sweep scale for store tests.
func smallBase() runner.Base {
	return runner.Base{RefsPerCore: 800, Cores: 2, MemPages: 1 << 14, RegionPages: 256, Seed: 7}
}

func smallSpecs() []runner.Spec {
	return []runner.Spec{
		{Scheme: core.Baseline(), Bench: "lbm", Tag: "a"},
		{Scheme: core.LazyC(4), Bench: "lbm", Tag: "b"},
	}
}

// entryFiles lists the store's persisted entries.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner.Runner{Store: s}
	res, err := r.RunContext(context.Background(), smallBase(), smallSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(entryFiles(t, dir)); got != len(smallSpecs()) {
		t.Fatalf("store holds %d entries, want %d", got, len(smallSpecs()))
	}

	// A fresh process (fresh runner, same directory) answers every point
	// from disk: zero simulations.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &runner.Runner{Store: s2}
	res2, err := r2.RunContext(context.Background(), smallBase(), smallSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.SimRuns != 0 || st.StoreHits != len(smallSpecs()) {
		t.Fatalf("warm run: SimRuns=%d StoreHits=%d, want 0 and %d", st.SimRuns, st.StoreHits, len(smallSpecs()))
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("store round trip changed the results")
	}
	ss := s2.Stats()
	if ss.Hits != uint64(len(smallSpecs())) || ss.Corrupt != 0 {
		t.Fatalf("store stats = %+v", ss)
	}
}

// TestDiskStoreCorruptEntryReSimulated: every flavour of on-disk damage —
// truncation, garbage, a flipped checksum, a version bump — must read as a
// miss, and the runner must quietly re-simulate and repair the entry.
func TestDiskStoreCorruptEntryReSimulated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := smallSpecs()[:1]
	r := &runner.Runner{Store: s}
	want, err := r.RunContext(context.Background(), smallBase(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("entries = %v", files)
	}
	entry := files[0]
	pristine, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(t *testing.T){
		"truncated": func(t *testing.T) {
			if err := os.WriteFile(entry, pristine[:len(pristine)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T) {
			if err := os.WriteFile(entry, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"checksum": func(t *testing.T) {
			var env envelope
			if err := json.Unmarshal(pristine, &env); err != nil {
				t.Fatal(err)
			}
			env.Result = json.RawMessage(`{"CPI": 0.001}`) // tampered result, stale checksum
			data, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"version": func(t *testing.T) {
			var env envelope
			if err := json.Unmarshal(pristine, &env); err != nil {
				t.Fatal(err)
			}
			env.Version = storeVersion + 1
			data, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			corrupt(t)
			s2, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			r2 := &runner.Runner{Store: s2}
			got, err := r2.RunContext(context.Background(), smallBase(), specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := r2.Stats()
			if st.SimRuns != 1 || st.StoreHits != 0 {
				t.Fatalf("corrupt entry: SimRuns=%d StoreHits=%d, want 1 and 0", st.SimRuns, st.StoreHits)
			}
			if ss := s2.Stats(); ss.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", ss.Corrupt)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("re-simulated result differs from the original")
			}
			// The re-simulation repaired the entry in place.
			repaired, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if string(repaired) != string(pristine) {
				t.Fatal("repaired entry differs from the pristine bytes")
			}
		})
	}
}

// TestDiskStoreConcurrent hammers one store from many goroutines mixing
// loads, stores and corrupt reads; run under -race this pins the
// concurrency contract.
func TestDiskStoreConcurrent(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{CPI: 3.25}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%10)
				if err := s.Store(key, res); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Load(key); !ok || got.CPI != res.CPI {
					t.Errorf("Load(%s) = %+v, %v", key, got, ok)
					return
				}
				s.Load(fmt.Sprintf("absent-%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	if ss := s.Stats(); ss.Writes == 0 || ss.Hits == 0 || ss.Misses == 0 {
		t.Fatalf("stats = %+v", ss)
	}
}
