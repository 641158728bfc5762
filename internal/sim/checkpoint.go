package sim

import (
	"errors"
	"fmt"
	"os"

	"sdpcm/internal/metrics"
	"sdpcm/internal/snap"
	"sdpcm/internal/trace"
)

// checkpointVersion is the on-disk format version. Bump it whenever any
// module's EncodeState layout changes; old files then fail with a
// snap.VersionError instead of decoding garbage. Version 1 was the original
// single-DIMM container, version 2 the separate multi-module one and 3 the
// one container with a registry per bank; 4 holds one registry per run and
// one device counter set per module, 5 one controller per module, and 6
// drops the write-queue entries' pre-read line buffers. Version 7 carries
// state only: the identity pins every config field, so no section records
// whether a subsystem is present, and the wear-leveling rows are keyed by
// page.
const checkpointVersion = 7

// ErrResume marks a failure to load or validate a resume checkpoint. The
// run can always be restarted cold instead — the sweep runner does exactly
// that — so callers should treat it as "checkpoint unusable", not
// "configuration broken".
var ErrResume = errors.New("sim: checkpoint resume failed")

// runState bundles the live structures of one Run invocation so the
// checkpoint encoder and the resume restorer see the same picture.
type runState struct {
	cfg   Config
	reg   *metrics.Registry // nil when collection is off
	mods  []*moduleRun
	cores []*corePending
	h     *coreHeap

	// totalRefs counts processed references in program order — one per
	// heap dispatch — and triggers checkpoints at Config.CheckpointEvery
	// boundaries. nextSnap is the cycle of the next mid-run snapshot.
	totalRefs uint64
	nextSnap  uint64
}

// identity names the run a checkpoint belongs to: the normalized config's
// Key rendering, which pins every behavior-affecting field (topology,
// hard-error lifetime and the enabled subsystems included), plus the
// stream count of a replay run. A checkpoint resumes only under the same
// identity, so its sections hold state alone.
func (s *runState) identity() string {
	id := s.cfg.render()
	if n := len(s.cfg.Streams); n > 0 {
		id += fmt.Sprintf("|streams=%d", n)
	}
	return id
}

// encodeCheckpoint serializes the complete simulator state: the core states
// first, then each module's device, controller, heatmap, allocator,
// wear-leveling layer and integrity shadow in module order, then the run's
// metrics registry.
func (s *runState) encodeCheckpoint() []byte {
	e := snap.NewEncoder(checkpointVersion)
	e.Begin("sim.run")
	e.String(s.identity())
	e.U64(s.totalRefs)
	e.U64(s.nextSnap)

	active := make([]bool, len(s.cores))
	for _, c := range *s.h {
		active[c.id] = true
	}
	e.Uvarint(uint64(len(s.cores)))
	for i, c := range s.cores {
		e.Bool(active[i])
		e.U64(c.time)
		e.Uvarint(uint64(c.refs))
		e.U64(c.instrs)
		// A live core's generator, or a replayed core's write-back
		// mutator; replayed streams are fast-forwarded by record count on
		// resume.
		c.in.encodeState(e)
		c.as.EncodeState(e)
	}

	e.Uvarint(uint64(len(s.mods)))
	for _, m := range s.mods {
		m.dev.EncodeState(e)
		m.ctrl.EncodeState(e)
		m.hm.EncodeState(e)
		m.alloc.EncodeState(e)
		if m.wl != nil {
			m.wl.EncodeState(e)
		}
		m.encodeShadow(e)
	}
	s.reg.EncodeState(e)
	e.End()
	return e.Finish()
}

// writeCheckpoint publishes a checkpoint atomically: a kill at any instant
// leaves either the previous complete file or the new one, never a torn
// write, because the content lands under a temporary name first and the
// rename is atomic on POSIX filesystems.
func writeCheckpoint(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sim: publishing checkpoint: %w", err)
	}
	return nil
}

func resumeErr(err error) error { return fmt.Errorf("%w: %w", ErrResume, err) }

// restoreCheckpoint loads a checkpoint into the freshly constructed run and
// rebuilds the core heap from it. Setup (seeding, construction, instrument
// registration) has already re-run deterministically from Config, so only
// mutable state is overwritten here. All failures wrap ErrResume; the
// caller can fall back to a cold start.
func (s *runState) restoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return resumeErr(err)
	}
	if err := s.decode(data); err != nil {
		return resumeErr(err)
	}
	// Caller-provided trace streams carry no serializable state; their
	// position is exactly the number of records this core consumed.
	if len(s.cfg.Streams) > 0 {
		for _, c := range s.cores {
			if err := fastForward(c.in.stream, c.refs); err != nil {
				return resumeErr(fmt.Errorf("core %d: %w", c.id, err))
			}
		}
	}
	return nil
}

// decode restores what encodeCheckpoint wrote and rebuilds the heap from
// the cores' membership flags.
func (s *runState) decode(data []byte) error {
	d, err := snap.NewDecoder(data, checkpointVersion)
	if err != nil {
		return err
	}
	d.Begin("sim.run")
	if id := d.String(); d.Err() == nil && id != s.identity() {
		return fmt.Errorf("checkpoint belongs to a different configuration:\n  theirs: %s\n  ours:   %s",
			id, s.identity())
	}
	s.totalRefs = d.U64()
	s.nextSnap = d.U64()

	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.cores)) {
		return fmt.Errorf("checkpoint has %d cores, this run has %d", n, len(s.cores))
	}
	*s.h = (*s.h)[:0]
	for _, c := range s.cores {
		active := d.Bool()
		if active {
			*s.h = append(*s.h, c)
		}
		c.time = d.U64()
		refs := d.Uvarint()
		if d.Err() == nil && refs > uint64(s.cfg.RefsPerCore) {
			return fmt.Errorf("checkpoint core %d is at reference %d of %d", c.id, refs, s.cfg.RefsPerCore)
		}
		// The loop retires a core on its last reference, so no run writes
		// a running core at the limit; its producer would have nothing
		// left to draw.
		if d.Err() == nil && active && refs == uint64(s.cfg.RefsPerCore) {
			return fmt.Errorf("checkpoint core %d is still running at its reference limit %d", c.id, refs)
		}
		c.refs = int(refs)
		c.instrs = d.U64()
		if err := c.in.src.DecodeState(d); err != nil {
			return err
		}
		if err := c.as.DecodeState(d); err != nil {
			return err
		}
	}
	// (time, id) totally orders cores, so the rebuilt heap dispatches in
	// exactly the order the checkpointing run would have.
	s.h.init()

	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.mods)) {
		return fmt.Errorf("checkpoint has %d modules, this run has %d", n, len(s.mods))
	}
	for _, m := range s.mods {
		if err := m.dev.DecodeState(d); err != nil {
			return err
		}
		if err := m.ctrl.DecodeState(d); err != nil {
			return err
		}
		if err := m.hm.DecodeState(d); err != nil {
			return err
		}
		if err := m.alloc.DecodeState(d); err != nil {
			return err
		}
		if m.wl != nil {
			if err := m.wl.DecodeState(d); err != nil {
				return err
			}
		}
		if err := m.decodeShadow(d); err != nil {
			return err
		}
	}
	if err := s.reg.DecodeState(d); err != nil {
		return err
	}
	d.End()
	return d.Close()
}

// skipper is the optional fast-path for stream fast-forwarding; the
// trace.StreamReader and trace.SliceStream implement it.
type skipper interface {
	Skip(n int) (int, error)
}

func fastForward(s trace.Stream, n int) error {
	if n == 0 {
		return nil
	}
	if sk, ok := s.(skipper); ok {
		m, err := sk.Skip(n)
		if err != nil {
			return err
		}
		if m != n {
			return fmt.Errorf("sim: stream ended after %d of %d replayed records", m, n)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Next(); !ok {
			return fmt.Errorf("sim: stream ended after %d of %d replayed records", i, n)
		}
	}
	return nil
}
