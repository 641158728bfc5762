package sim

import (
	"context"
	"runtime/pprof"
	"sync"

	"sdpcm/internal/snap"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// A core's reference stream depends only on its own sources, never on
// simulated time, module state or other cores, so each core's records and
// write-back payloads are drawn ahead of the run loop on a producer
// goroutine and handed over a batch at a time. prefetchBatches batches of
// up to batchRecords records cycle between each producer and the loop.
const (
	prefetchBatches = 3
	batchRecords    = 96
)

// source synthesises a core's write-back payloads and is the one source
// whose state a checkpoint records: the workload generator of a live core
// (also its record stream) or the Mutator of a replayed one. Payloads are
// drawn (consuming the per-core RNG in program order) separately from their
// application to the line's latest content.
type source interface {
	DrawMutation() workload.Mutation
	State() workload.State
	SetState(workload.State)
	EncodeState(*snap.Encoder)
	DecodeState(*snap.Decoder) error
}

// batch is one handoff: records in program order, the payload of each write
// among them in the same order, and the source's state before the first of
// them was drawn.
type batch struct {
	start workload.State
	recs  []trace.Record
	muts  []workload.Mutation
	end   bool // the stream ran dry after recs
}

// prefetch is one core's reference source as the run loop sees it. Until
// launch, stream and src belong to the run (restore decodes and
// fast-forwards them); after it, only the producer touches them.
type prefetch struct {
	stream trace.Stream
	src    source
	// scratch is a private copy of src, and scratchStream the same copy as
	// a stream for a live core (nil for a replayed one): checkpoints replay
	// the consumed part of the current batch on it.
	scratch       source
	scratchStream trace.Stream

	full, free chan *batch
	cur        *batch
	pos, mpos  int // next record and next payload of cur
}

// livePrefetch feeds a core from its workload generator, which supplies
// both the records and the payloads.
func livePrefetch(g *workload.Generator) *prefetch {
	s := g.Clone()
	return &prefetch{stream: g, src: g, scratch: s, scratchStream: s}
}

// replayPrefetch feeds a core from a replayed stream and its write-back
// mutator.
func replayPrefetch(s trace.Stream, m *workload.Mutator) *prefetch {
	return &prefetch{stream: s, src: m, scratch: m.Clone()}
}

// startPrefetch launches a producer for each core still in the heap, bounded
// by the references that core has left, and returns the function that
// stops every producer and waits for it to exit. It runs after any resume,
// so each producer starts from its restored, fast-forwarded sources.
func startPrefetch(cores []*corePending, h coreHeap, refsPerCore int) (stop func()) {
	for _, c := range cores {
		c.in.cur = &batch{start: c.in.src.State()}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range h {
		p, left := c.in, refsPerCore-c.refs
		// Each channel can hold every batch, so no send ever blocks.
		p.full = make(chan *batch, prefetchBatches)
		p.free = make(chan *batch, prefetchBatches)
		// The loop holds the empty first batch; the producer fills the rest.
		p.cur.recs = make([]trace.Record, 0, batchRecords)
		for i := 1; i < prefetchBatches; i++ {
			p.free <- &batch{recs: make([]trace.Record, 0, batchRecords)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("layer", "workload"), func(context.Context) {
				produce(p.stream, p.src, p.free, p.full, left, done)
			})
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// produce fills free batches until it has drawn left records or the stream
// ends. Each write's payload is drawn right after its record, the order the
// sources were always consumed in. It works on locals and writes a batch's
// header once, when the batch is done, so it shares no cache line the loop
// writes per record. Sends to full never block: the channel holds every
// batch there is.
func produce(stream trace.Stream, src source, free <-chan *batch, full chan<- *batch, left int, done <-chan struct{}) {
	for left > 0 {
		var b *batch
		select {
		case b = <-free:
		case <-done:
			return
		}
		start := src.State()
		recs, muts := b.recs[:0], b.muts[:0]
		end := false
		for len(recs) < batchRecords && left > 0 {
			rec, ok := stream.Next()
			if !ok {
				end = true
				break
			}
			if rec.Kind == trace.Write {
				muts = append(muts, src.DrawMutation())
			}
			recs = append(recs, rec)
			left--
		}
		b.start, b.recs, b.muts, b.end = start, recs, muts, end
		full <- b
		if end {
			return
		}
	}
}

// Next returns the core's next record; false once a replayed stream ends.
func (p *prefetch) Next() (trace.Record, bool) {
	if p.pos == len(p.cur.recs) && !p.advance() {
		return trace.Record{}, false
	}
	r := p.cur.recs[p.pos]
	p.pos++
	return r, true
}

// advance returns the consumed batch to the producer and waits for the next
// one; false if the stream ended instead.
func (p *prefetch) advance() bool {
	for p.pos == len(p.cur.recs) {
		if p.cur.end {
			return false
		}
		p.free <- p.cur
		p.cur = <-p.full
		p.pos, p.mpos = 0, 0
	}
	return true
}

// DrawMutation returns the payload of the write Next last returned.
func (p *prefetch) DrawMutation() workload.Mutation {
	m := p.cur.muts[p.mpos]
	p.mpos++
	return m
}

// encodeState writes the source's state as of the records the loop has
// consumed, not as far as the producer has drawn: the current batch's start
// state, advanced on the scratch copy over the consumed records.
func (p *prefetch) encodeState(e *snap.Encoder) {
	p.scratch.SetState(p.cur.start)
	for _, r := range p.cur.recs[:p.pos] {
		if p.scratchStream != nil {
			p.scratchStream.Next()
		}
		if r.Kind == trace.Write {
			p.scratch.DrawMutation()
		}
	}
	p.scratch.EncodeState(e)
}
