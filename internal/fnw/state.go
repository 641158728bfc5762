package fnw

import (
	"fmt"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and per-line flip bits in
// ascending address order. Nil-safe: the identity form encodes as absent.
func (c *Codec) EncodeState(e *snap.Encoder) {
	e.Begin("fnw.codec")
	e.Bool(c != nil)
	if c != nil {
		e.U64(c.Stats.Encodes)
		e.U64(c.Stats.GroupsFlipped)
		e.U64(c.Stats.BitsSaved)
		c.aux.EncodeEntries(e)
	}
	e.End()
}

// DecodeState restores state written by EncodeState. The receiver's
// presence (nil or not, fixed by the scheme) must match the checkpoint's,
// and every coded line must satisfy owns (the owning controller's device
// and bank) and be resident on the bound device, restored beforehand.
func (c *Codec) DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error {
	d.Begin("fnw.codec")
	present := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if present != (c != nil) {
		return fmt.Errorf("fnw: checkpoint codec presence %t does not match this run's %t", present, c != nil)
	}
	if present {
		c.Stats.Encodes = d.U64()
		c.Stats.GroupsFlipped = d.U64()
		c.Stats.BitsSaved = d.U64()
		c.aux.DecodeEntries(d, "fnw", owns)
	}
	d.End()
	return d.Err()
}
