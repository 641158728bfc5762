package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCPolicy bounds a DiskStore's disk footprint. A zero field disables that
// bound; the zero policy disables garbage collection entirely.
type GCPolicy struct {
	// MaxBytes, when positive, caps the total size of entry files. When the
	// store exceeds it, the oldest entries (by modification time) are removed
	// until the total fits.
	MaxBytes int64
	// MaxAge, when positive, expires entries whose modification time is
	// older than MaxAge at prune time, regardless of total size.
	MaxAge time.Duration
}

func (p GCPolicy) enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// ConfigureGC installs the store's retention policy. It only records the
// policy; call Prune (or StartGC) to apply it.
func (s *DiskStore) ConfigureGC(p GCPolicy) { s.gc = p }

// gcEntry is one candidate file during a prune pass.
type gcEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// Prune applies the configured policy once: expired entries go first, then
// oldest entries until the size cap holds. Only regular "*.json" entry files
// are considered — temp files from in-flight writes are left alone (their
// rename is what publishes an entry). Returns the number of entries removed
// and the bytes they occupied. Concurrent readers losing a race to a removal
// see an ordinary miss and re-simulate, so pruning is always safe.
func (s *DiskStore) Prune(now time.Time) (removed int, freed int64, err error) {
	if !s.gc.enabled() {
		return 0, 0, nil
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: prune result store: %w", err)
	}
	var entries []gcEntry
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		entries = append(entries, gcEntry{
			path:  filepath.Join(s.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
		total += info.Size()
	}
	// Oldest first; ties broken by name so a prune pass is deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		expired := s.gc.MaxAge > 0 && now.Sub(e.mtime) > s.gc.MaxAge
		oversize := s.gc.MaxBytes > 0 && total > s.gc.MaxBytes
		if !expired && !oversize {
			// Sorted oldest-first: every later entry is younger (not expired)
			// and total only shrinks on removal (not oversize either).
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				total -= e.size
				continue
			}
			return removed, freed, fmt.Errorf("serve: prune result store: %w", err)
		}
		removed++
		freed += e.size
		total -= e.size
		s.pruned.Add(1)
	}
	return removed, freed, nil
}

// StartGC runs Prune now and then once per interval until the returned stop
// function is called. The interval must be positive (time.NewTicker panics
// otherwise; callers validate it). Stop is idempotent and waits for an
// in-flight pass to finish.
func (s *DiskStore) StartGC(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			s.Prune(time.Now())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
			<-finished
		}
	}
}
