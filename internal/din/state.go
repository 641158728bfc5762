package din

import (
	"fmt"
	"slices"

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
		encodeAux(e, c.aux)
	}
	e.End()
}

// DecodeState restores state written by EncodeState. The receiver's
// presence (nil or not, fixed by the scheme) must match the checkpoint's,
// and every coded line must satisfy owns (the owning controller's device
// and bank).
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
		c.aux = decodeAux(d, "din", owns)
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

// encodeAux writes a per-line aux-bit map deterministically; shared with
// the fnw codec's state encoding via identical layout.
func encodeAux(e *snap.Encoder, aux map[pcm.LineAddr]uint32) {
	addrs := make([]pcm.LineAddr, 0, len(aux))
	for a := range aux {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		e.U64(uint64(a))
		e.Uvarint(uint64(aux[a]))
	}
}

// decodeAux reads what encodeAux wrote, rejecting a line owns refuses.
func decodeAux(d *snap.Decoder, name string, owns func(pcm.LineAddr) bool) map[pcm.LineAddr]uint32 {
	n := d.Count()
	aux := make(map[pcm.LineAddr]uint32, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		a := pcm.LineAddr(d.U64())
		if d.Err() == nil && !owns(a) {
			d.Invalid("%s: checkpoint codes line %d outside this controller's device or bank", name, a)
		}
		aux[a] = uint32(d.Uvarint())
	}
	return aux
}
