package mc

import (
	"fmt"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// PolicyState is the optional CorrectionPolicy extension for policies that
// carry mutable state across write operations (the in-module barrier's
// victim buffers, for example). The built-in policies are stateless and do
// not implement it; a stateful plugin must, or checkpointing a run that
// uses it is refused — silently dropping policy state would break the
// resume contract.
type PolicyState interface {
	EncodePolicyState(e *snap.Encoder)
	DecodePolicyState(d *snap.Decoder) error
}

// codecState is the word-line codec's optional checkpoint surface;
// *din.Codec (including the nil identity form) and *fnw.Codec implement it.
type codecState interface {
	EncodeState(e *snap.Encoder)
	DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error
}

// CheckpointSupported reports whether this controller's configuration can
// be checkpointed exactly: an opaque correction policy or word-line codec
// without a state codec would silently lose state across a resume.
func (c *Controller) CheckpointSupported() error {
	// The built-in policies are stateless value types; anything else must
	// declare its state through PolicyState.
	if _, ok := c.cfg.Correction.(PolicyState); !ok && !isBuiltinPolicy(c.cfg.Correction) {
		return fmt.Errorf("mc: correction policy %T does not implement mc.PolicyState; checkpointing would drop its state", c.cfg.Correction)
	}
	if _, ok := c.codec.(codecState); !ok {
		return fmt.Errorf("mc: word-line codec %T does not implement a state codec; checkpointing would drop its state", c.codec)
	}
	return nil
}

func isBuiltinPolicy(p CorrectionPolicy) bool {
	switch p.(type) {
	case eagerCorrection, lazyECP:
		return true
	}
	return false
}

func encodeMCStats(e *snap.Encoder, s Stats) {
	e.U64(s.DemandReads)
	e.U64(s.ForwardedReads)
	e.U64(s.WriteRequests)
	e.U64(s.Coalesced)
	e.U64(s.WriteOps)
	e.U64(s.Drains)
	e.U64(s.PreReadsIssued)
	e.U64(s.PreReadsForwarded)
	e.U64(s.PreReadsCanceled)
	e.U64(s.PreReadHits)
	e.U64(s.VerifyReads)
	e.U64(s.CascadeReads)
	e.U64(s.CorrectionWrites)
	e.U64(s.LazyRecords)
	e.U64(s.CascadeTruncated)
	e.U64(s.ReadPreemptions)
	e.U64(s.BurstOps)
	e.U64(s.BackgroundOps)
	e.U64(s.ProgramCycles)
	e.U64(s.VerifyCycles)
	e.U64(s.CorrectCycles)
	e.U64(s.ReadCycles)
	e.U64(s.ReadLatencySum)
	e.U64(s.ReadWaitSum)
}

func decodeMCStats(d *snap.Decoder, s *Stats) {
	s.DemandReads = d.U64()
	s.ForwardedReads = d.U64()
	s.WriteRequests = d.U64()
	s.Coalesced = d.U64()
	s.WriteOps = d.U64()
	s.Drains = d.U64()
	s.PreReadsIssued = d.U64()
	s.PreReadsForwarded = d.U64()
	s.PreReadsCanceled = d.U64()
	s.PreReadHits = d.U64()
	s.VerifyReads = d.U64()
	s.CascadeReads = d.U64()
	s.CorrectionWrites = d.U64()
	s.LazyRecords = d.U64()
	s.CascadeTruncated = d.U64()
	s.ReadPreemptions = d.U64()
	s.BurstOps = d.U64()
	s.BackgroundOps = d.U64()
	s.ProgramCycles = d.U64()
	s.VerifyCycles = d.U64()
	s.CorrectCycles = d.U64()
	s.ReadCycles = d.U64()
	s.ReadLatencySum = d.U64()
	s.ReadWaitSum = d.U64()
}

// EncodeState serializes the controller's mutable state: counters, the
// entry-ID generator, every bank's queue and preread bookkeeping, and the
// ECP table, disturbance engine, word-line codec and (when stateful)
// correction policy owned by this controller. The device is shared across
// controllers and is serialized once by the caller.
func (c *Controller) EncodeState(e *snap.Encoder) {
	e.Begin("mc.controller")
	encodeMCStats(e, c.Stats)
	e.U64(c.nextID)
	for i := range c.banks {
		b := &c.banks[i]
		e.U64(b.freeAt)
		e.Bool(b.draining)
		e.Uvarint(uint64(len(b.wq)))
		for _, w := range b.wq {
			e.U64(w.id)
			e.U64(uint64(w.addr))
			pcm.EncodeLine(e, w.data)
			e.U64(w.enqueuedAt)
			e.Bool(w.verifyTop)
			e.Bool(w.verifyBelow)
			e.U64(uint64(w.top))
			e.U64(uint64(w.below))
			e.Bool(w.topOK)
			e.Bool(w.belowOK)
			e.Bool(w.prTop)
			e.Bool(w.prBelow)
			pcm.EncodeLine(e, w.bufTop)
			pcm.EncodeLine(e, w.bufBelow)
		}
		e.Uvarint(uint64(len(b.prereads)))
		for _, p := range b.prereads {
			e.U64(p.start)
			e.U64(p.end)
			e.U64(p.entryID)
			e.Bool(p.top)
		}
	}
	c.ecp.EncodeState(e)
	c.engine.EncodeState(e)
	if cs, ok := c.codec.(codecState); ok {
		e.Bool(true)
		cs.EncodeState(e)
	} else {
		e.Bool(false)
	}
	if ps, ok := c.cfg.Correction.(PolicyState); ok {
		e.Bool(true)
		ps.EncodePolicyState(e)
	} else {
		e.Bool(false)
	}
	e.End()
}

// owns reports whether checkpointed per-line state (ECP entries, codec bits)
// for line a can belong to this controller: a line of its device, in its
// bank when BindBank bound it to one.
func (c *Controller) owns(a pcm.LineAddr) bool {
	return uint64(a) < uint64(c.dev.Lines()) && (c.bank < 0 || c.geo.Locate(a).Bank == c.bank)
}

// validEntry reports whether a decoded write-queue entry of bank i targets a
// line of this device in that bank, with the neighbour fields newEntry
// would have derived from its address.
func (c *Controller) validEntry(i int, w *writeEntry) bool {
	if uint64(w.addr) >= uint64(c.dev.Lines()) || c.geo.Locate(w.addr).Bank != i {
		return false
	}
	top, below, topOK, belowOK := c.geo.AdjacentLines(w.addr, c.dev.RowsPerBank)
	return w.top == top && w.below == below && w.topOK == topOK && w.belowOK == belowOK &&
		(!w.verifyTop || topOK) && (!w.verifyBelow || belowOK)
}

// DecodeState restores state written by EncodeState into a controller
// freshly constructed with the same Config. A queued write must target a
// line of this device in its own bank's queue, and ECP and codec state must
// name lines the controller owns.
func (c *Controller) DecodeState(d *snap.Decoder) error {
	d.Begin("mc.controller")
	decodeMCStats(d, &c.Stats)
	c.nextID = d.U64()
	for i := range c.banks {
		b := &c.banks[i]
		b.freeAt = d.U64()
		b.draining = d.Bool()
		n := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		b.wq = b.wq[:0]
		for j := 0; j < n && d.Err() == nil; j++ {
			w := &writeEntry{}
			w.id = d.U64()
			w.addr = pcm.LineAddr(d.U64())
			w.data = pcm.DecodeLine(d)
			w.enqueuedAt = d.U64()
			w.verifyTop = d.Bool()
			w.verifyBelow = d.Bool()
			w.top = pcm.LineAddr(d.U64())
			w.below = pcm.LineAddr(d.U64())
			w.topOK = d.Bool()
			w.belowOK = d.Bool()
			w.prTop = d.Bool()
			w.prBelow = d.Bool()
			w.bufTop = pcm.DecodeLine(d)
			w.bufBelow = pcm.DecodeLine(d)
			if d.Err() == nil && !c.validEntry(i, w) {
				d.Invalid("mc: checkpoint queues a write to line %d in bank %d's queue", w.addr, i)
			}
			b.wq = append(b.wq, w)
		}
		m := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		b.prereads = b.prereads[:0]
		for j := 0; j < m && d.Err() == nil; j++ {
			var p prOp
			p.start = d.U64()
			p.end = d.U64()
			p.entryID = d.U64()
			p.top = d.Bool()
			b.prereads = append(b.prereads, p)
		}
	}
	if err := c.ecp.DecodeState(d, c.owns); err != nil {
		return err
	}
	if err := c.engine.DecodeState(d); err != nil {
		return err
	}
	hasCodec := d.Bool()
	cs, ok := c.codec.(codecState)
	if d.Err() == nil && hasCodec != ok {
		return fmt.Errorf("mc: checkpoint codec-state presence %t does not match this run's codec %T", hasCodec, c.codec)
	}
	if hasCodec && d.Err() == nil {
		if err := cs.DecodeState(d, c.owns); err != nil {
			return err
		}
	}
	hasPolicy := d.Bool()
	ps, ok := c.cfg.Correction.(PolicyState)
	if d.Err() == nil && hasPolicy != ok {
		return fmt.Errorf("mc: checkpoint policy-state presence %t does not match this run's policy %T", hasPolicy, c.cfg.Correction)
	}
	if hasPolicy && d.Err() == nil {
		if err := ps.DecodePolicyState(d); err != nil {
			return err
		}
	}
	d.End()
	return d.Err()
}
