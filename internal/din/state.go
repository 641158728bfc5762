package din

import (
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and per-line coding bits in
// ascending address order. Nil-safe: the identity form (encoding disabled,
// which the scheme fixes) writes nothing.
func (c *Codec) EncodeState(e *snap.Encoder) {
	if c == nil {
		return
	}
	e.Begin("din.codec")
	e.U64(c.Stats.Encodes)
	e.U64(c.Stats.GroupsInverted)
	e.U64(c.Stats.VulnerableCells)
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
	d.Begin("din.codec")
	c.Stats.Encodes = d.U64()
	c.Stats.GroupsInverted = d.U64()
	c.Stats.VulnerableCells = d.U64()
	c.Stats.BitsSaved = d.U64()
	c.aux.DecodeEntries(d, "din", owns)
	d.End()
	return d.Err()
}
