// Package din implements a disturbance-aware data encoding in the spirit of
// DIN [10] (Jiang et al., DSN'14), which SD-PCM adopts to mitigate write
// disturbance along word-lines (§4.1).
//
// Word-line WD arises when a RESET pulse fires next to an *idle* cell that
// stores '0' (amorphous). The codec splits each line into 16-cell groups
// (four per 64-cell chip segment) and, for every group, picks identity or
// inverted polarity, greedily minimising the number of vulnerable victim
// cells the write would create — with chip-segment edge aggressors weighted
// extra (they threaten the horizontally adjacent line, which the write
// cannot verify) and fewer programmed cells as the tie-breaker. One
// auxiliary coding bit per group (32 per line, 6.25 % overhead) is stored
// alongside the row.
//
// Residual in-line word-line flips are caught by the write circuit's
// program-and-verify loop and rewritten within the write operation — the
// "additional checks and rewrites" DIN performs to ensure write reliability;
// internal/wd simulates that loop stochastically. What Figure 4(a) reports
// (≈0.4 manifested errors per write) is exactly those residual flips.
//
// Physical adjacency is confined to each chip's contiguous 64-cell share of
// the line: bit 63 of chip k is not adjacent to bit 0 of chip k+1.
package din

import (
	"fmt"
	"math/bits"

	"sdpcm/internal/pcm"
)

// GroupBits is the inversion-coding granularity.
const GroupBits = 16

// GroupsPerLine is the number of coding groups (and aux bits) per line.
const GroupsPerLine = pcm.LineBits / GroupBits

// SegmentBits is the span of physical word-line adjacency: one chip's share
// of a line.
const SegmentBits = pcm.BitsPerChipLine

// AuxBitsPerLine is the per-line coding-bit storage overhead.
const AuxBitsPerLine = GroupsPerLine

// edgePenalty is the cost weight of a chip-segment edge cell firing RESET:
// edge aggressors threaten a neighbouring line the write cannot verify, so
// they are costed as heavily as two in-line victims.
const edgePenalty = 2

// Stats aggregates codec activity.
type Stats struct {
	Encodes         uint64 // lines encoded
	GroupsInverted  uint64 // groups stored in inverted polarity
	VulnerableCells uint64 // in-line vulnerable victims left after coding
	BitsSaved       uint64 // programmed-cell reduction vs identity coding
}

// Codec encodes line data into disturbance-minimising stored images and
// remembers each line's current per-group polarity. A nil *Codec is valid
// and behaves as the identity transform (encoding disabled).
type Codec struct {
	Stats Stats

	// aux holds each coded line's coding word (bit g set = group g stored
	// inverted), keyed by the bound device's resident-line slots; an entry
	// with word 0 is a line coded all-identity.
	aux pcm.LineTable
}

// NewCodec returns an enabled standalone codec (see pcm.NewLineTable) until
// Bind attaches it to the device it codes for.
func NewCodec() *Codec {
	return &Codec{aux: pcm.NewLineTable(nil)}
}

// Bind keys the codec's per-line state by dev's resident-line slots,
// dropping any state it held. The controller binds its codec to the device
// it writes before the first write.
func (c *Codec) Bind(dev *pcm.Device) {
	if c != nil {
		c.aux = pcm.NewLineTable(dev)
	}
}

// laneMasks[m] covers the 16-bit group lanes of a word named by the 4-bit
// mask m: a line's coding word applies to word w as laneMasks[aux>>(4w)&15].
var laneMasks = func() (t [16]uint64) {
	for m := range t {
		for k := 0; k < 64/GroupBits; k++ {
			if m>>k&1 != 0 {
				t[m] |= 0xffff << (k * GroupBits)
			}
		}
	}
	return t
}()

// Decode maps a stored image back to data using the line's recorded coding.
func (c *Codec) Decode(a pcm.LineAddr, stored pcm.Line) pcm.Line {
	if c == nil {
		return stored
	}
	aux := c.aux.Get(a)
	if aux == 0 {
		return stored
	}
	for w := range stored {
		stored[w] ^= laneMasks[aux>>(4*w)&15]
	}
	return stored
}

// Lane constants of the word-wide encoder: bit 0 and bit 15 of every 16-bit
// group lane, bit 0 of the lanes with a group to their left in the segment,
// and the position of the risk term in a lane's cost key.
const (
	laneLow   = 0x0001_0001_0001_0001
	laneHigh  = 0x8000_8000_8000_8000
	leftLanes = laneLow &^ 1
	riskShift = 5 // a lane changes at most 16 cells, below 1<<5
	// groupCells holds GroupBits in every lane.
	groupCells = GroupBits * laneLow
)

// Encode produces the stored image for writing data over the current stored
// image. On a nil codec the stored image is the data itself.
//
// Each group greedily takes the polarity with the lower cost: risk first
// (vulnerable victims, the boundary pair with the already-fixed cell to its
// left, and edgePenalty per chip-segment edge cell firing RESET), then fewer
// programmed cells, with identity winning exact ties for stable aux bits.
// All four groups of a word are costed at once with lane-masked shifts and a
// per-lane popcount. Only the left boundary depends on the previous group's
// choice, so each word's groups are decided for both polarities of their
// left neighbour and a 1-bit chain then picks, group by group.
func (c *Codec) Encode(a pcm.LineAddr, data, stored pcm.Line) pcm.Line {
	if c == nil {
		return data
	}
	var aux uint32
	out := data
	identity, chosen, vulnerable := 0, 0, 0
	for w := range data {
		o, d := stored[w], data[w]
		// Cost keys risk<<riskShift + programmed cells: comparing keys ranks
		// candidates by risk, then programmed cells. The inverted candidate
		// programs exactly the cells the plain one leaves.
		changed := laneCounts(o ^ d)
		keyPlain := laneRisk(o&^d, ^(o|d))<<riskShift + changed
		keyInv := laneRisk(o&d, ^o&d)<<riskShift + (groupCells - changed)
		// Left boundary: when the cell to the left ends at 0 and a group's
		// bit 0 differs from that cell's old value, the candidate whose bit
		// 0 ends at 0 (the inverted one when d's bit 0 is 1) gains a victim:
		// the left cell resets next to our idle amorphous bit 0, or our bit
		// 0 resets next to the idle amorphous left cell. The left cell ends
		// as d's bit when its group stays plain and inverted otherwise.
		differs := (o ^ o<<1) & leftLanes
		leftOne := d << 1 & leftLanes
		toInv := d & leftLanes
		leftPlain, leftInv := differs&^leftOne, differs&leftOne
		ifPlain := invertLanes(keyPlain+(leftPlain&^toInv)<<riskShift, keyInv+(leftPlain&toInv)<<riskShift)
		ifInv := invertLanes(keyPlain+(leftInv&^toInv)<<riskShift, keyInv+(leftInv&toInv)<<riskShift)
		m := ifPlain & 1 // group 0 of a segment has no left boundary
		for k := 1; k < 64/GroupBits; k++ {
			left := -(m >> (k - 1) & 1) // all ones when group k-1 inverted
			m |= (ifPlain&^left | ifInv&left) & (1 << k)
		}
		aux |= uint32(m) << (4 * w)
		n := d ^ laneMasks[m]
		out[w] = n
		identity += bits.OnesCount64(o ^ d)
		chosen += bits.OnesCount64(o ^ n)
		r := o &^ n
		vulnerable += bits.OnesCount64(^(o | n) & (r<<1 | r>>1))
	}
	c.Stats.GroupsInverted += uint64(bits.OnesCount32(aux))
	if identity > chosen {
		c.Stats.BitsSaved += uint64(identity - chosen)
	}
	c.aux.Put(a, aux)
	c.Stats.Encodes++
	c.Stats.VulnerableCells += uint64(vulnerable)
	return out
}

// laneRisk returns, per 16-bit group lane of one word, a candidate coding's
// in-group risk: amorphous (idle cells reading 0) victims next to its resets
// (1→0 pulses) within the group, plus the segment-edge penalties. The
// boundary term to the left of a group is left to the caller.
func laneRisk(resets, amorphous uint64) uint64 {
	near := (resets<<1)&^laneLow | (resets>>1)&^laneHigh
	// Segment edges: lane 0's bit 0 and lane 3's bit 15 (word bits 0, 63).
	return laneCounts(amorphous&near) + edgePenalty*(resets&1) + edgePenalty*(resets>>63)<<48
}

// invertLanes returns a 4-bit mask of the lanes whose plain key exceeds the
// inverted one: the groups that store inverted. Keys stay below 1<<15, so a
// guard bit per lane keeps the lane-wise subtraction from borrowing across.
func invertLanes(plain, inv uint64) uint64 {
	g := (^((inv | laneHigh) - plain) & laneHigh) >> 15
	return g&1 | g>>15&2 | g>>30&4 | g>>45&8
}

// laneCounts returns each 16-bit lane's population count of x, in place.
func laneCounts(x uint64) uint64 {
	x -= (x >> 1) & 0x5555_5555_5555_5555
	x = x&0x3333_3333_3333_3333 + (x>>2)&0x3333_3333_3333_3333
	x = (x + x>>4) & 0x0f0f_0f0f_0f0f_0f0f
	return (x + x>>8) & 0x001f_001f_001f_001f
}

// Vulnerable returns the idle amorphous cells horizontally adjacent (within
// a chip segment) to an aggressor RESET pulse, given the pulse map and the
// old/new stored images. This is a single-step set: rewriting a flipped
// victim fires new RESET pulses, so internal/wd iterates this with fresh
// aggressor masks until quiescent.
func Vulnerable(aggressors pcm.Mask, old, new pcm.Line) pcm.Mask {
	var out pcm.Mask
	for seg := 0; seg < pcm.LineBits/SegmentBits; seg++ {
		w := seg // SegmentBits == 64, so one word per segment
		idle := ^(old[w] ^ new[w]) &^ aggressors[w]
		amorphous := idle & ^new[w]
		out[w] = amorphous & ((aggressors[w] << 1) | (aggressors[w] >> 1))
	}
	return out
}

// EdgeExposure describes the written line's residual word-line aggressors:
// for each chip segment, whether its first/last cell fires a RESET pulse,
// which can disturb the edge cell of the horizontally adjacent line in the
// same row.
type EdgeExposure struct {
	// LeftAggressor[s] is true when segment s's first cell fires RESET
	// (threatens the previous slot's segment-s last cell).
	LeftAggressor [pcm.LineBits / SegmentBits]bool
	// RightAggressor[s] is true when segment s's last cell fires RESET
	// (threatens the next slot's segment-s first cell).
	RightAggressor [pcm.LineBits / SegmentBits]bool
}

// Edges extracts the residual cross-line word-line aggressors from a pulse
// map (which must include any rewrite pulses).
func Edges(resetMask pcm.Mask) EdgeExposure {
	var e EdgeExposure
	for seg := 0; seg < pcm.LineBits/SegmentBits; seg++ {
		w := seg // one 64-bit word per segment
		e.LeftAggressor[seg] = resetMask[w]&1 != 0
		e.RightAggressor[seg] = resetMask[w]&(1<<63) != 0
	}
	return e
}

// AuxBits exposes a line's current coding word for inspection/testing.
func (c *Codec) AuxBits(a pcm.LineAddr) uint32 {
	if c == nil {
		return 0
	}
	return c.aux.Get(a)
}

// TableBytes returns the capacity of the codec's per-line tables, in bytes.
func (c *Codec) TableBytes() int {
	if c == nil {
		return 0
	}
	return c.aux.Bytes()
}

// sanity check at init: exactly one 64-bit word per chip segment.
var _ = func() struct{} {
	if SegmentBits != 64 {
		panic(fmt.Sprintf("din: SegmentBits = %d, expected 64", SegmentBits))
	}
	return struct{}{}
}()
