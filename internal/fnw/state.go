package fnw

import (
	"fmt"
	"slices"

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
		addrs := make([]pcm.LineAddr, 0, len(c.aux))
		for a := range c.aux {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		e.Uvarint(uint64(len(addrs)))
		for _, a := range addrs {
			e.U64(uint64(a))
			e.Uvarint(uint64(c.aux[a]))
		}
	}
	e.End()
}

// DecodeState restores state written by EncodeState. The receiver's
// presence (nil or not, fixed by the scheme) must match the checkpoint's,
// and every coded line must satisfy owns (the owning controller's device
// and bank).
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
		n := d.Count()
		c.aux = make(map[pcm.LineAddr]uint32, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			a := pcm.LineAddr(d.U64())
			if d.Err() == nil && !owns(a) {
				d.Invalid("fnw: checkpoint codes line %d outside this controller's device or bank", a)
			}
			c.aux[a] = uint32(d.Uvarint())
		}
	}
	d.End()
	return d.Err()
}
