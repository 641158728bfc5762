package fnw

import (
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and per-line flip bits in
// ascending address order. Nil-safe: the identity form writes nothing.
func (c *Codec) EncodeState(e *snap.Encoder) {
	if c == nil {
		return
	}
	e.Begin("fnw.codec")
	e.U64(c.Stats.Encodes)
	e.U64(c.Stats.GroupsFlipped)
	e.U64(c.Stats.BitsSaved)
	c.aux.EncodeEntries(e)
	e.End()
}

// DecodeState restores state written by EncodeState into a codec of the
// same scheme (the identity form reads nothing). Every coded line must
// satisfy owns (the owning controller's device and bank) and be resident
// on the bound device, restored beforehand.
func (c *Codec) DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error {
	if c == nil {
		return d.Err()
	}
	d.Begin("fnw.codec")
	c.Stats.Encodes = d.U64()
	c.Stats.GroupsFlipped = d.U64()
	c.Stats.BitsSaved = d.U64()
	c.aux.DecodeEntries(d, "fnw", owns)
	d.End()
	return d.Err()
}
