package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the controller's mutable state: counters, the
// entry-ID generator, every bank's queue, preread bookkeeping and
// disturbance engine, and the ECP table, word-line codec and (under
// Barrier) the in-module barrier. The device is serialized by the caller.
func (c *Controller) EncodeState(e *snap.Encoder) {
	e.Begin("mc.controller")
	metrics.EncodeFields(e, c.Stats.Counters())
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
		}
		e.Uvarint(uint64(len(b.prereads)))
		for _, p := range b.prereads {
			e.U64(p.start)
			e.U64(p.end)
			e.U64(p.entryID)
			e.Bool(p.top)
		}
		b.engine.EncodeState(e)
	}
	c.ecp.EncodeState(e)
	c.codec.EncodeState(e)
	if c.barrier != nil {
		c.barrier.encodeState(e)
	}
	e.End()
}

// owns reports whether checkpointed per-line state (ECP entries, codec bits)
// for line a can belong to this controller: a line of its device.
func (c *Controller) owns(a pcm.LineAddr) bool {
	return uint64(a) < uint64(c.dev.Lines())
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

// readInFlight reports whether an in-flight preread fits the queue: the
// entry it names, while still queued, needs verification on that side and
// has the pre-read flag the issue set. An entry may have left the queue
// already, since a full-queue drain executes entries whose prereads are
// still in flight.
func (b *bank) readInFlight(p prOp) bool {
	e := b.findEntryByID(p.entryID)
	switch {
	case e == nil:
		return true
	case p.top:
		return e.verifyTop && e.prTop
	default:
		return e.verifyBelow && e.prBelow
	}
}

// DecodeState restores state written by EncodeState into a controller
// freshly constructed with the same Config. A queued write must target a
// line of this device in its own bank's queue, at most once per line; ECP
// and codec state must name lines the controller owns; an in-flight preread
// must name an entry id already handed out and, while that entry is queued,
// a pre-read side of it; and only a controller with PreRead (WriteCancel)
// accepts in-flight prereads (a bank mid-drain). The queue's address mirror
// and open-side count are rebuilt, and the next issue pass scans the whole
// queue.
func (c *Controller) DecodeState(d *snap.Decoder) error {
	d.Begin("mc.controller")
	metrics.DecodeFields(d, c.Stats.Counters())
	c.nextID = d.U64()
	for i := range c.banks {
		b := &c.banks[i]
		b.freeAt = d.U64()
		b.draining = d.Bool()
		if b.draining && !c.cfg.WriteCancel {
			d.Invalid("mc: checkpoint has bank %d mid-drain in a controller without WriteCancel", i)
		}
		n := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		b.wq, b.addrs, b.pending, b.rescan = b.wq[:0], b.addrs[:0], 0, true
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
			switch {
			case d.Err() != nil:
			case !c.validEntry(i, w):
				d.Invalid("mc: checkpoint queues a write to line %d in bank %d's queue", w.addr, i)
			case b.find(w.addr) >= 0:
				d.Invalid("mc: checkpoint queues two writes to line %d in bank %d (writes coalesce)", w.addr, i)
			}
			b.push(w)
		}
		m := d.Count()
		if m > 0 && !c.cfg.PreRead {
			d.Invalid("mc: checkpoint has %d in-flight prereads on bank %d in a controller without PreRead", m, i)
		}
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
			switch {
			case d.Err() != nil:
			case p.entryID == 0 || p.entryID > c.nextID:
				d.Invalid("mc: checkpoint has an in-flight preread on bank %d for entry %d, an id never handed out (next is %d)", i, p.entryID, c.nextID+1)
			case !b.readInFlight(p):
				d.Invalid("mc: checkpoint has an in-flight preread for a side of entry %d on bank %d that has no preread", p.entryID, i)
			}
			b.prereads = append(b.prereads, p)
		}
		if err := b.engine.DecodeState(d); err != nil {
			return err
		}
	}
	if err := c.ecp.DecodeState(d, c.owns); err != nil {
		return err
	}
	if err := c.codec.DecodeState(d, c.owns); err != nil {
		return err
	}
	if c.barrier != nil {
		if err := c.barrier.decodeState(c, d); err != nil {
			return err
		}
	}
	d.End()
	return d.Err()
}
