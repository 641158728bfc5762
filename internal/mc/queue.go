package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/wd"
)

// This file is the controller core's queue machinery: per-bank write queues,
// background (watermark) draining, lazy catch-up execution, the full-queue
// drain (bursty, or preemptible under Config.WriteCancel) and the flush
// path.

// writeEntry is one write-queue slot (Fig. 8: address, data and two PreRead
// flag bits). The hardware's two 64 B pre-read buffers are not modelled:
// the disturbance engine reports a write's flips directly, so nothing reads
// the buffered neighbour content, and a flag records that the side's
// pre-write read is done.
type writeEntry struct {
	id         uint64
	addr       pcm.LineAddr
	data       pcm.Line // decoded new content
	enqueuedAt uint64

	verifyTop, verifyBelow bool
	top, below             pcm.LineAddr
	topOK, belowOK         bool

	prTop, prBelow bool
}

// open counts the entry's pending pre-write reads: sides that need
// verification and have no pre-write read yet.
func (e *writeEntry) open() int {
	n := 0
	if e.verifyTop && !e.prTop {
		n++
	}
	if e.verifyBelow && !e.prBelow {
		n++
	}
	return n
}

// bank is one PCM bank's scheduling state and its disturbance engine.
// addrs, pending and rescan are derived from wq and the prereads; the
// checkpoint does not store them and DecodeState rebuilds them.
type bank struct {
	engine   *wd.Engine
	freeAt   uint64
	wq       []*writeEntry
	addrs    []pcm.LineAddr // wq[i].addr, so address lookups scan one contiguous slice
	draining bool
	prereads []prOp
	pending  int  // open pre-write reads across wq (writeEntry.open)
	rescan   bool // a cancel re-opened a side: the next issue pass scans the whole queue
}

// find returns the queue index of the write to addr, or -1. The controller
// coalesces writes, so a line has at most one queued entry.
func (b *bank) find(addr pcm.LineAddr) int {
	for i, a := range b.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// findEntry locates a queued write to addr.
func (b *bank) findEntry(addr pcm.LineAddr) *writeEntry {
	if i := b.find(addr); i >= 0 {
		return b.wq[i]
	}
	return nil
}

func (b *bank) findEntryByID(id uint64) *writeEntry {
	for _, e := range b.wq {
		if e.id == id {
			return e
		}
	}
	return nil
}

// push appends an entry to the queue.
func (b *bank) push(e *writeEntry) {
	b.wq = append(b.wq, e)
	b.addrs = append(b.addrs, e.addr)
	b.pending += e.open()
}

// catchUp advances a bank's lazy work to time t: completed prereads are
// retired, and (under a drain) queued write ops whose start time has passed
// are executed. At most one op ends past t (the in-flight op). Under
// PreRead, any idle time left afterwards goes to pending prereads (§4.3: "a
// PreRead operation often has the opportunity to be issued when its
// associated memory bank is idle").
func (c *Controller) catchUp(b *bank, t uint64) {
	c.retire(b, t)
	for len(b.wq) > 0 && b.freeAt <= t && (b.draining || len(b.wq) > c.cfg.LowWatermark) {
		c.Stats.BackgroundOps++
		c.executeNext(b, false)
		if b.draining && len(b.wq) <= c.cfg.LowWatermark {
			b.draining = false
		}
	}
	if b.draining && len(b.wq) <= c.cfg.LowWatermark {
		b.draining = false
	}
	c.issue(b, t, nil)
}

// executeNext pops the oldest write entry and runs its full VnC write op,
// advancing freeAt. Work cannot start before the write arrived. burst marks
// ops retired inside a full-queue drain (trace attribution only). The
// retired entry returns to the controller's pool: with queues bounded by
// WriteQueueCap the steady-state write path allocates nothing.
func (c *Controller) executeNext(b *bank, burst bool) {
	e := b.wq[0]
	// Shift down instead of advancing the slice: the backing array keeps its
	// capacity, so the queue never reallocates after warm-up. n <= wq cap
	// moves per op — noise next to the write op itself.
	n := copy(b.wq, b.wq[1:])
	b.wq[n] = nil
	b.wq = b.wq[:n]
	copy(b.addrs, b.addrs[1:])
	b.addrs = b.addrs[:n]
	b.pending -= e.open()
	b.freeAt = max(b.freeAt, e.enqueuedAt)
	if c.tr != nil {
		var bf uint64
		if burst {
			bf = 1
		}
		c.tr.Emit(b.freeAt, metrics.EvQueueDrain, uint64(e.addr), b.freeAt-e.enqueuedAt, bf)
	}
	c.queueRes.Observe(b.freeAt - e.enqueuedAt)
	d := c.executeWrite(b, e)
	b.freeAt += uint64(d)
	// No pointer to e survives execution (prereads reference entries by id),
	// so the entry is free for reuse.
	c.entryPool = append(c.entryPool, e)
}

// Write buffers a write-back arriving at `now` (posted: the core does not
// stall). A full queue triggers a drain: by default the §5.1 bursty drain
// flushes to the low watermark, blocking the bank for the whole burst.
// Under WriteCancel (§6.8 [22]) the bank is marked draining and only this
// write's room is made now; catchUp retires the rest as time passes and
// demand reads preempt it at write-op boundaries.
func (c *Controller) Write(now uint64, addr pcm.LineAddr, data pcm.Line) {
	c.Stats.WriteRequests++
	loc := c.geo.Locate(addr)
	b := &c.banks[loc.Bank]
	c.catchUp(b, now)
	if i := b.find(addr); i >= 0 {
		// Coalesce: update in place; pre-read state is unaffected.
		b.wq[i].data = data
		c.Stats.Coalesced++
		return
	}
	if len(b.wq) >= c.cfg.WriteQueueCap {
		c.Stats.Drains++
		if c.tr != nil {
			c.tr.Emit(now, metrics.EvQueueStall, uint64(addr), uint64(len(b.wq)), 0)
		}
		b.freeAt = max(b.freeAt, now)
		limit := c.cfg.LowWatermark
		if c.cfg.WriteCancel {
			b.draining = true
			limit = c.cfg.WriteQueueCap - 1
		}
		for len(b.wq) > limit {
			c.Stats.BurstOps++
			c.executeNext(b, true)
		}
	}
	e := c.newEntry(addr, data)
	e.enqueuedAt = now
	b.push(e)
	c.queueDepth.Observe(uint64(len(b.wq)))
	if c.tr != nil {
		c.tr.Emit(now, metrics.EvQueueEnqueue, uint64(addr), uint64(len(b.wq)), 0)
	}
	c.issue(b, now, e)
}

// newEntry builds a write-queue entry (recycling a retired one when the
// pool has one), resolving the (n:m) verification decisions for its two
// bit-line neighbours.
func (c *Controller) newEntry(addr pcm.LineAddr, data pcm.Line) *writeEntry {
	c.nextID++
	var e *writeEntry
	if n := len(c.entryPool); n > 0 {
		e = c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		*e = writeEntry{id: c.nextID, addr: addr, data: data}
	} else {
		e = &writeEntry{id: c.nextID, addr: addr, data: data}
	}
	e.top, e.below, e.topOK, e.belowOK = c.geo.AdjacentLines(addr, c.dev.RowsPerBank)
	vt, vb := c.verifySides(addr.Page())
	e.verifyTop = vt && e.topOK
	e.verifyBelow = vb && e.belowOK
	return e
}

// verifySides applies §4.4: which bit-line neighbours of a write to this
// page hold data and need VnC. With VerifyNeighbors off (WD-free bit-lines)
// nothing is verified.
func (c *Controller) verifySides(p pcm.PageAddr) (top, below bool) {
	if !c.cfg.VerifyNeighbors {
		return false, false
	}
	tag := c.region.RegionTag(p)
	s := c.region.StripIndexInRegion(p)
	return tag.VerifyNeighbors(s, c.region.StripsPerRegion())
}

// Flush drains every bank completely (end of simulation or checkpoint) and
// returns the cycle all work finishes. The in-module barrier writes its
// buffered repairs back here — its buffer is volatile module SRAM and must
// be empty at power-down — and its cost is conservatively serialised after
// the last bank's queue runs dry.
func (c *Controller) Flush(now uint64) uint64 {
	end := now
	for i := range c.banks {
		b := &c.banks[i]
		c.catchUp(b, now)
		b.freeAt = max(b.freeAt, now)
		for len(b.wq) > 0 {
			c.executeNext(b, false)
		}
		b.draining = false
		end = max(end, b.freeAt)
	}
	if c.barrier != nil {
		end += uint64(c.barrier.drain(c))
	}
	return end
}

// QueueOccupancy returns the total buffered writes (for tests/monitoring).
func (c *Controller) QueueOccupancy() int {
	n := 0
	for i := range c.banks {
		n += len(c.banks[i].wq)
	}
	return n
}
