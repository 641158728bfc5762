// Package fnw implements Flip-N-Write (Cho & Lee, MICRO'09 [7]), the
// classic PCM write-reduction encoding, as an alternative word-line codec
// for ablation studies: for every 16-cell group, if updating it in place
// would program more than half the cells, the group is stored inverted.
//
// Flip-N-Write halves the worst-case programmed-cell count, which both
// extends endurance and — relevant to SD-PCM — fires fewer RESET pulses,
// so it also reduces write disturbance pressure. Unlike the DIN-style codec
// (internal/din) it is oblivious to *which* cells sit next to aggressors,
// so it leaves more word-line-vulnerable patterns behind; the ablation
// benchmarks quantify that difference.
package fnw

import (
	"math/bits"

	"sdpcm/internal/pcm"
)

// GroupBits matches the DIN codec granularity: one flip bit per 16 cells
// (6.25% overhead).
const GroupBits = 16

// GroupsPerLine is the number of flip bits per line.
const GroupsPerLine = pcm.LineBits / GroupBits

// Stats aggregates codec activity.
type Stats struct {
	Encodes       uint64
	GroupsFlipped uint64 // groups stored inverted
	BitsSaved     uint64 // programmed cells avoided vs identity coding
}

// Codec is a Flip-N-Write encoder. A nil *Codec is the identity transform.
type Codec struct {
	Stats Stats

	// aux holds each coded line's flip word (bit g set = group g stored
	// inverted), keyed by the bound device's resident-line slots.
	aux pcm.LineTable
}

// NewCodec returns an enabled standalone codec (see pcm.NewLineTable) until
// Bind attaches it to the device it codes for.
func NewCodec() *Codec {
	return &Codec{aux: pcm.NewLineTable(nil)}
}

// Bind keys the codec's per-line state by dev's resident-line slots,
// dropping any state it held.
func (c *Codec) Bind(dev *pcm.Device) {
	if c != nil {
		c.aux = pcm.NewLineTable(dev)
	}
}

func groupWordShift(g int) (word int, shift uint) {
	return g * GroupBits / 64, uint(g * GroupBits % 64)
}

// Decode maps a stored image back to data.
func (c *Codec) Decode(a pcm.LineAddr, stored pcm.Line) pcm.Line {
	if c == nil {
		return stored
	}
	auxBits := c.aux.Get(a)
	if auxBits == 0 {
		return stored
	}
	out := stored
	for g := 0; g < GroupsPerLine; g++ {
		if auxBits&(1<<uint(g)) != 0 {
			w, s := groupWordShift(g)
			out[w] ^= uint64(0xffff) << s
		}
	}
	return out
}

// Encode chooses, per group, the polarity that programs fewer cells.
func (c *Codec) Encode(a pcm.LineAddr, data, stored pcm.Line) pcm.Line {
	if c == nil {
		return data
	}
	var newAux uint32
	out := data
	for g := 0; g < GroupsPerLine; g++ {
		w, s := groupWordShift(g)
		oldBits := uint16(stored[w] >> s)
		plain := uint16(data[w] >> s)
		dPlain := bits.OnesCount16(oldBits ^ plain)
		dInv := GroupBits - dPlain // distance to the inverted codeword
		choose := plain
		if dInv < dPlain {
			choose = ^plain
			newAux |= 1 << uint(g)
			c.Stats.GroupsFlipped++
			c.Stats.BitsSaved += uint64(dPlain - dInv)
		}
		out[w] = (out[w] &^ (uint64(0xffff) << s)) | uint64(choose)<<s
	}
	c.aux.Put(a, newAux)
	c.Stats.Encodes++
	return out
}

// AuxBits exposes a line's current flip word for inspection/testing.
func (c *Codec) AuxBits(a pcm.LineAddr) uint32 {
	if c == nil {
		return 0
	}
	return c.aux.Get(a)
}
