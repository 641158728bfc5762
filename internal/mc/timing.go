package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// This file is the controller core's externally-timed operations: demand
// read servicing and the complete VnC write op.

// Read services a demand read arriving at `now`. It returns the cycle the
// data is available and the (ECP-corrected, decoded) line content: ReadTime's
// timing plus LatestData's content, which ReadTime leaves unchanged.
func (c *Controller) Read(now uint64, addr pcm.LineAddr) (uint64, pcm.Line) {
	done := c.ReadTime(now, addr)
	return done, c.LatestData(addr)
}

// ReadTime services a demand read arriving at `now` for its timing only and
// returns the cycle the data is available. A core blocks on a read's timing,
// not its content, so the simulator fetches content (LatestData) only when
// something consumes it. A read forwards from a queued write to the line, or
// else catches the bank up, cancels its in-flight prereads and occupies it
// for one array read.
func (c *Controller) ReadTime(now uint64, addr pcm.LineAddr) uint64 {
	c.Stats.DemandReads++
	loc := c.geo.Locate(addr)
	b := &c.banks[loc.Bank]
	// Write-queue forwarding: the freshest value lives in the queue.
	if b.find(addr) >= 0 {
		c.Stats.ForwardedReads++
		c.Stats.ReadLatencySum += forwardCycles
		c.readLat.Observe(forwardCycles)
		return now + forwardCycles
	}
	c.catchUp(b, now)
	// A read reaching a bank mid-drain (only WriteCancel drains lazily)
	// preempts it: it waits only for the in-flight op, and the remaining
	// drain work resumes after the read.
	if b.draining && b.freeAt > now {
		c.Stats.ReadPreemptions++
		if c.tr != nil {
			c.tr.Emit(now, metrics.EvWriteCancel, uint64(addr), uint64(len(b.wq)), 0)
		}
	}
	c.cancel(b, now)
	start := max(now, b.freeAt)
	c.dev.CountRead() // demand array read
	done := start + uint64(c.cfg.Timing.ReadCycles)
	b.freeAt = done
	c.Stats.ReadCycles += uint64(c.cfg.Timing.ReadCycles)
	c.Stats.ReadLatencySum += done - now
	c.Stats.ReadWaitSum += start - now
	c.readLat.Observe(done - now)
	return done
}

// executeWrite runs one complete write operation for a queue entry and
// returns the bank cycles it consumes. The flow (§3.2, §4.2):
//
//  1. pre-write reads of the adjacent lines that need verification, unless
//     PreRead already issued or forwarded them (prTop/prBelow);
//  2. DIN encoding, differential programming, in-line word-line
//     verify-and-rewrite (folded into the program phase);
//  3. post-write reads of the same adjacent lines; comparison yields the
//     manifested bit-line WD errors;
//  4. per neighbour: Config.Correction absorbs the errors (LazyC parks
//     X+Y<=N of them in ECP entries, the barrier buffers them) or a
//     correction write RESETs the disturbed cells, which cascades — the
//     correction is itself a write whose neighbours must be verified —
//     until a verification finds no new errors.
func (c *Controller) executeWrite(b *bank, e *writeEntry) int {
	c.Stats.WriteOps++
	// The engine stamps trace events with the op's start time (writes run
	// asynchronously to core time, so "now" is when the bank begins the op).
	b.engine.Now = b.freeAt
	cycles := 0

	// --- 1. Pre-write reads (charged as verification). ---
	if e.verifyTop || e.verifyBelow {
		missing := 0
		if e.verifyTop && !e.prTop {
			c.dev.CountRead()
			e.prTop = true
			missing++
		}
		if e.verifyBelow && !e.prBelow {
			c.dev.CountRead()
			e.prBelow = true
			missing++
		}
		if missing == 0 {
			c.Stats.PreReadHits++
			if c.tr != nil {
				c.tr.Emit(b.freeAt, metrics.EvPreReadHit, uint64(e.addr), 0, 0)
			}
		}
		c.Stats.VerifyReads += uint64(missing)
		if !c.cfg.NoVerifyCharge {
			d := missing * c.cfg.Timing.ReadCycles
			cycles += d
			c.Stats.VerifyCycles += uint64(d)
		}
	}

	// --- 2. Program the line. ---
	// A fresh write supersedes any WD errors parked for this line (§4.2):
	// the ECP entries are released for free, and the barrier drops its
	// pending repair the same way.
	c.ecp.ClearWD(e.addr, false)
	if c.barrier != nil {
		c.barrier.observeWrite(c, e.addr)
	}
	old := c.dev.Peek(e.addr)
	img := c.codec.Encode(e.addr, e.data, old)
	res := c.dev.Write(e.addr, img, pcm.NormalWrite)
	out := b.engine.OnWrite(c.dev, e.addr, old, img, res.Reset, res.Set)
	prog := res.Cycles
	if out.RewritePulses > 0 {
		// In-line rewrite rounds extend the program phase.
		prog += c.cfg.Timing.WriteCycles(out.RewritePulses, 0)
	}
	cycles += prog
	c.Stats.ProgramCycles += uint64(prog)

	// --- 3/4. Verify adjacent lines and handle their errors. ---
	if e.verifyTop {
		cycles += c.verifyNeighbour(e.top, out.Above, 0)
	}
	if e.verifyBelow {
		cycles += c.verifyNeighbour(e.below, out.Below, 0)
	}
	return cycles
}
