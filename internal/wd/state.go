package wd

import (
	"fmt"

	"sdpcm/internal/metrics"
	"sdpcm/internal/snap"
)

// EncodeState serializes the engine's mutable state: counters, the event
// timestamp and the RNG stream position. Rates and the trace/heatmap
// instruments are construction parameters.
func (e *Engine) EncodeState(enc *snap.Encoder) {
	enc.Begin("wd.engine")
	metrics.EncodeFields(enc, e.Stats.Counters())
	enc.Int(e.Stats.MaxWordLinePerWrite)
	enc.Int(e.Stats.MaxBitLinePerLine)
	enc.U64(e.Now)
	for _, w := range e.rnd.State() {
		enc.U64(w)
	}
	enc.End()
}

// DecodeState restores state written by EncodeState.
func (e *Engine) DecodeState(d *snap.Decoder) error {
	d.Begin("wd.engine")
	metrics.DecodeFields(d, e.Stats.Counters())
	e.Stats.MaxWordLinePerWrite = d.Int()
	e.Stats.MaxBitLinePerLine = d.Int()
	e.Now = d.U64()
	var s [4]uint64
	for i := range s {
		s[i] = d.U64()
	}
	e.rnd.SetState(s)
	d.End()
	return d.Err()
}

// EncodeState serializes the heatmap cells. Nil-safe: the disabled form
// encodes a zero cell count, matching the disabled form on decode.
func (h *Heatmap) EncodeState(e *snap.Encoder) {
	e.Begin("wd.heatmap")
	if h == nil {
		e.Uvarint(0)
		e.End()
		return
	}
	e.Uvarint(uint64(len(h.cells)))
	for i := range h.cells {
		c := &h.cells[i]
		e.U64(c.Injected)
		e.U64(c.Parked)
		e.U64(c.Flushed)
		e.U64(c.CascadeSum)
		e.U64(c.Corrections)
		e.U64(c.CascadeMax)
	}
	e.End()
}

// DecodeState restores heatmap cells written by EncodeState. The receiver's
// shape (from construction) must match the checkpoint's cell count; a nil
// receiver accepts only the disabled (zero-cell) form.
func (h *Heatmap) DecodeState(d *snap.Decoder) error {
	d.Begin("wd.heatmap")
	n := d.Count()
	want := 0
	if h != nil {
		want = len(h.cells)
	}
	if d.Err() != nil {
		return d.Err()
	}
	if n != want {
		return fmt.Errorf("wd: checkpoint heatmap has %d cells, this run expects %d", n, want)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		c := &h.cells[i]
		c.Injected = d.U64()
		c.Parked = d.U64()
		c.Flushed = d.U64()
		c.CascadeSum = d.U64()
		c.Corrections = d.U64()
		c.CascadeMax = d.U64()
	}
	d.End()
	return d.Err()
}
