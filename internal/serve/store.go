// Package serve grows the observability plane into a multi-tenant sweep
// service: a REST/JSON job API (submit an experiment sweep, watch its
// progress live, fetch the rendered table) over the existing sweep executor
// (internal/runner), with a durable on-disk result store underneath so
// identical submissions — across jobs, processes and users — are answered
// from disk instead of re-simulating.
//
// The package layers strictly on top of internal/runner, internal/
// experiments and internal/obs; nothing below may import it (enforced by
// scripts/archcheck.go).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"sdpcm/internal/sim"
)

// storeVersion is bumped whenever the envelope layout or the semantics of
// persisted results change incompatibly; entries with another version are
// treated as misses and re-simulated. Version 2 results keep their event
// tails in emission order (version 1 tails were time-sorted).
const storeVersion = 2

// envelope is the on-disk entry format: the full canonical runner key (the
// filename only carries its hash), an integrity checksum over the result
// bytes, and the result itself as raw JSON.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	SHA256  string          `json:"sha256"`
	Result  json.RawMessage `json:"result"`
}

// StoreStats is a snapshot of a DiskStore's traffic counters.
type StoreStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Writes  uint64 `json:"writes"`
	Corrupt uint64 `json:"corrupt"`
	Pruned  uint64 `json:"pruned"`
}

// DiskStore is a durable runner.MemoStore: one JSON file per simulation
// point, named by the SHA-256 of the canonical runner key. Writes are
// atomic (temp file + rename), so a crash mid-write never leaves a
// half-entry under the final name; reads verify version, key and checksum,
// and treat any mismatch as a miss — a corrupt or truncated entry costs a
// re-simulation, never a wrong result. Safe for concurrent use from many
// goroutines and many processes sharing the directory.
type DiskStore struct {
	dir string
	gc  GCPolicy

	hits, misses, writes, corrupt, pruned atomic.Uint64
}

// OpenDiskStore opens (creating if needed) a result store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open result store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// Stats snapshots the traffic counters.
func (s *DiskStore) Stats() StoreStats {
	return StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
		Pruned:  s.pruned.Load(),
	}
}

// path maps a runner key to its entry file. Hashing keeps the filename
// short and filesystem-safe regardless of what the canonical key encodes.
func (s *DiskStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// Load implements runner.MemoStore. Any defect — unreadable file, bad
// JSON, version or key mismatch, checksum failure — counts as a miss (and
// as Corrupt when the file existed but failed verification).
func (s *DiskStore) Load(key string) (sim.Result, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return sim.Result{}, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		s.miss(true)
		return sim.Result{}, false
	}
	if env.Version != storeVersion || env.Key != key {
		// The file is named by the key's SHA-256, so an entry holding
		// another key is damaged, not a collision.
		s.miss(true)
		return sim.Result{}, false
	}
	sum := sha256.Sum256(env.Result)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		s.miss(true)
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		s.miss(true)
		return sim.Result{}, false
	}
	s.hits.Add(1)
	return res, true
}

func (s *DiskStore) miss(corrupt bool) {
	s.misses.Add(1)
	if corrupt {
		s.corrupt.Add(1)
	}
}

// Store implements runner.MemoStore: marshal, checksum, write to a temp
// file in the same directory and rename over the final name. Concurrent
// writers of the same key race benignly — both write identical bytes (the
// simulator is deterministic) and rename is atomic.
func (s *DiskStore) Store(key string, res sim.Result) error {
	body, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("serve: encode result: %w", err)
	}
	sum := sha256.Sum256(body)
	data, err := json.Marshal(envelope{
		Version: storeVersion,
		Key:     key,
		SHA256:  hex.EncodeToString(sum[:]),
		Result:  body,
	})
	if err != nil {
		return fmt.Errorf("serve: encode entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".entry-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: store result: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store result: %w", werr)
	}
	s.writes.Add(1)
	return nil
}
