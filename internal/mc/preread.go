package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// This file is the §4.3 PreRead machinery, active under Config.PreRead:
// pending pre-write reads issue during bank idle slots, neighbours present
// in the write queue are forwarded from their entry buffers at no bank
// cost, and demand reads cancel in-flight prereads. Without PreRead a bank
// holds no prereads, so retire and cancel have nothing to act on and the
// write op itself performs the pre-write reads.

// prOp is an in-flight PreRead occupying bank time; cancellable by a demand
// read until its end time passes.
type prOp struct {
	start, end uint64
	entryID    uint64
	top        bool
}

// retire drops prereads completed by time t (called before queued work
// catches up).
func (c *Controller) retire(b *bank, t uint64) {
	keep := b.prereads[:0]
	for _, p := range b.prereads {
		if p.end > t {
			keep = append(keep, p)
		}
	}
	b.prereads = keep
}

// issue uses bank idle time at `now` to perform pending pre-write reads for
// queued entries (§4.3).
func (c *Controller) issue(b *bank, now uint64) {
	if !c.cfg.PreRead {
		return
	}
	idle := b.freeAt <= now && !b.draining
	for _, e := range b.wq {
		if e.verifyTop && !e.prTop {
			idle = c.issueOne(b, e, true, now, idle)
		}
		if e.verifyBelow && !e.prBelow {
			idle = c.issueOne(b, e, false, now, idle)
		}
	}
}

// issueOne services one pending pre-write read. Forwarding from a queued
// write to the neighbour costs no bank time and happens regardless of bank
// state; a device read requires the idle grant. Returns whether further
// device reads may still be issued in this batch.
func (c *Controller) issueOne(b *bank, e *writeEntry, top bool, now uint64, idle bool) bool {
	neighbour := e.top
	if !top {
		neighbour = e.below
	}
	// Forward from the queue when the neighbour line has a pending write:
	// by the time this entry executes, the queue (FIFO) will have written
	// it, so the buffered data is the authoritative old content (§4.3).
	if other := b.findEntry(neighbour); other != nil {
		if top {
			e.prTop, e.bufTop = true, other.data
		} else {
			e.prBelow, e.bufBelow = true, other.data
		}
		c.Stats.PreReadsForwarded++
		if c.tr != nil {
			c.tr.Emit(now, metrics.EvPreReadForwarded, uint64(neighbour), e.id, 0)
		}
		return idle
	}
	if !idle {
		return false
	}
	start := max(b.freeAt, now)
	end := start + uint64(c.cfg.Timing.ReadCycles)
	buf := c.dev.Read(neighbour)
	if top {
		e.prTop, e.bufTop = true, buf
	} else {
		e.prBelow, e.bufBelow = true, buf
	}
	b.freeAt = end
	b.prereads = append(b.prereads, prOp{start: start, end: end, entryID: e.id, top: top})
	c.Stats.PreReadsIssued++
	if c.tr != nil {
		c.tr.Emit(start, metrics.EvPreReadIssued, uint64(neighbour), e.id, 0)
	}
	return true
}

// cancel aborts in-flight prereads (end > t): demand reads have priority
// (§4.3). Bank time is rolled back to the first canceled start — prereads
// are always the newest work on the bank.
func (c *Controller) cancel(b *bank, t uint64) {
	if len(b.prereads) == 0 {
		return
	}
	rollback := b.freeAt
	keep := b.prereads[:0]
	for _, p := range b.prereads {
		if p.end <= t {
			keep = append(keep, p)
			continue
		}
		c.Stats.PreReadsCanceled++
		if p.start < rollback {
			rollback = p.start
		}
		if e := b.findEntryByID(p.entryID); e != nil {
			var victim pcm.LineAddr
			if p.top {
				e.prTop = false
				victim = e.top
			} else {
				e.prBelow = false
				victim = e.below
			}
			if c.tr != nil {
				c.tr.Emit(t, metrics.EvPreReadCanceled, uint64(victim), p.entryID, 0)
			}
		}
	}
	b.prereads = keep
	if rollback < b.freeAt {
		b.freeAt = rollback
	}
}
