package din

import (
	"fmt"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and per-line coding bits in
// ascending address order. Nil-safe: the identity form encodes as absent,
// so a scheme with encoding disabled round-trips through a checkpoint.
func (c *Codec) EncodeState(e *snap.Encoder) {
	e.Begin("din.codec")
	e.Bool(c != nil)
	if c != nil {
		e.U64(c.Stats.Encodes)
		e.U64(c.Stats.GroupsInverted)
		e.U64(c.Stats.VulnerableCells)
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
	d.Begin("din.codec")
	present := d.Bool()
	if err := checkPresence(d, "din", present, c != nil); err != nil {
		return err
	}
	if present {
		c.Stats.Encodes = d.U64()
		c.Stats.GroupsInverted = d.U64()
		c.Stats.VulnerableCells = d.U64()
		c.Stats.BitsSaved = d.U64()
		c.aux.DecodeEntries(d, "din", owns)
	}
	d.End()
	return d.Err()
}

// checkPresence verifies the checkpoint and the running scheme agree on
// whether the codec is enabled; presence is fixed by the scheme, so a
// mismatch means the checkpoint belongs to a different configuration.
func checkPresence(d *snap.Decoder, name string, got, want bool) error {
	if err := d.Err(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: checkpoint codec presence %t does not match this run's %t", name, got, want)
	}
	return nil
}
