package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// This file is the §4.3 PreRead machinery, active under Config.PreRead:
// pending pre-write reads issue during bank idle slots, neighbours present
// in the write queue are forwarded from their queued writes at no bank
// cost, and demand reads cancel in-flight prereads. Without PreRead a bank
// holds no prereads, so retire and cancel have nothing to act on and the
// write op itself performs the pre-write reads.
//
// The rule that keeps issue cheap: after any issue pass, no open side
// (verify && !pr) of a queued entry has a queued neighbour. An idle pass
// resolves every open side, and a busy pass forwards every side whose
// neighbour is queued. Between passes only two events can break the rule:
// an enqueue of line X, which gives the entries at below(X) and above(X) a
// queued neighbour and brings X's own sides, and a cancel that re-opens a
// side. So after an enqueue a busy bank checks just those entries. The whole
// queue is scanned when the bank is idle (device reads may issue), after a
// cancel (bank.rescan) and after a restore.

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
// queued entries (§4.3). added is the entry the caller just enqueued, or nil.
// A full pass visits every entry in queue order; a busy bank with no
// re-opened side only checks the sides the enqueue can have made forwardable,
// in the same order, which does exactly what a full pass would.
func (c *Controller) issue(b *bank, now uint64, added *writeEntry) {
	if !c.cfg.PreRead || b.pending == 0 {
		return
	}
	idle := b.freeAt <= now && !b.draining
	if idle || b.rescan {
		b.rescan = false
		for _, e := range b.wq {
			if e.verifyTop && !e.prTop {
				idle = c.issueOne(b, e, true, now, idle)
			}
			if e.verifyBelow && !e.prBelow {
				idle = c.issueOne(b, e, false, now, idle)
			}
		}
		return
	}
	if added == nil {
		return
	}
	// The entry at below(X) has X as its top neighbour and the one at
	// above(X) has X below it (adjacent rows share a bank). Visit the two in
	// queue order, then X's own sides: X is last in the queue.
	up, down := -1, -1
	if added.topOK {
		up = b.find(added.top)
	}
	if added.belowOK {
		down = b.find(added.below)
	}
	lo, hi := up, down
	if hi >= 0 && (lo < 0 || hi < lo) {
		lo, hi = hi, lo
	}
	for _, i := range [2]int{lo, hi} {
		switch {
		case i < 0:
		case i == down && b.wq[i].verifyTop && !b.wq[i].prTop:
			c.forward(b, b.wq[i], true, added, now)
		case i == up && b.wq[i].verifyBelow && !b.wq[i].prBelow:
			c.forward(b, b.wq[i], false, added, now)
		}
	}
	if up >= 0 && added.verifyTop && !added.prTop {
		c.forward(b, added, true, b.wq[up], now)
	}
	if down >= 0 && added.verifyBelow && !added.prBelow {
		c.forward(b, added, false, b.wq[down], now)
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
	if other := b.findEntry(neighbour); other != nil {
		c.forward(b, e, top, other, now)
		return idle
	}
	if !idle {
		return false
	}
	start := max(b.freeAt, now)
	end := start + uint64(c.cfg.Timing.ReadCycles)
	c.dev.CountRead()
	if top {
		e.prTop = true
	} else {
		e.prBelow = true
	}
	b.pending--
	b.freeAt = end
	b.prereads = append(b.prereads, prOp{start: start, end: end, entryID: e.id, top: top})
	c.Stats.PreReadsIssued++
	if c.tr != nil {
		c.tr.Emit(start, metrics.EvPreReadIssued, uint64(neighbour), e.id, 0)
	}
	return true
}

// forward resolves one side of e from other, the queued write to that
// neighbour: by the time e executes, the queue (FIFO) will have written it,
// so the side's pre-write read is satisfied by that queued write (§4.3).
func (c *Controller) forward(b *bank, e *writeEntry, top bool, other *writeEntry, now uint64) {
	if top {
		e.prTop = true
	} else {
		e.prBelow = true
	}
	b.pending--
	c.Stats.PreReadsForwarded++
	if c.tr != nil {
		c.tr.Emit(now, metrics.EvPreReadForwarded, uint64(other.addr), e.id, 0)
	}
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
			b.pending++
			b.rescan = true
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
