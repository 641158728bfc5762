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

	aux map[pcm.LineAddr]uint32 // bit g set = group g stored inverted
}

// NewCodec returns an enabled codec.
func NewCodec() *Codec {
	return &Codec{aux: make(map[pcm.LineAddr]uint32)}
}

// groupWordShift returns the word index and bit shift of group g's lane.
func groupWordShift(g int) (word int, shift uint) {
	return g * GroupBits / 64, uint(g * GroupBits % 64)
}

// Decode maps a stored image back to data using the line's recorded coding.
func (c *Codec) Decode(a pcm.LineAddr, stored pcm.Line) pcm.Line {
	if c == nil {
		return stored
	}
	auxBits := c.aux[a]
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

// Encode produces the stored image for writing data over the current stored
// image. On a nil codec the stored image is the data itself.
func (c *Codec) Encode(a pcm.LineAddr, data, stored pcm.Line) pcm.Line {
	if c == nil {
		return data
	}
	var newAux uint32
	out := data
	identityChanges, chosenChanges := 0, 0
	for g := 0; g < GroupsPerLine; g++ {
		w, s := groupWordShift(g)
		oldBits := uint16(stored[w] >> s)
		plain := uint16(data[w] >> s)
		inv := ^plain
		// Greedy: groups to the left of g are already fixed in out.
		var leftOldBit, leftNewBit uint64
		groupsPerSeg := SegmentBits / GroupBits
		posInSeg := g % groupsPerSeg
		hasLeft := posInSeg != 0
		if hasLeft {
			leftOldBit = stored.Bit(g*GroupBits - 1)
			leftNewBit = out.Bit(g*GroupBits - 1)
		}
		atSegStart := posInSeg == 0
		atSegEnd := posInSeg == groupsPerSeg-1
		cPlain := groupCost(oldBits, plain, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		cInv := groupCost(oldBits, inv, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		choose, chosen := plain, cPlain
		if !better(cPlain, cInv) {
			choose, chosen = inv, cInv
			newAux |= 1 << uint(g)
			c.Stats.GroupsInverted++
		}
		identityChanges += cPlain.changes
		chosenChanges += chosen.changes
		out[w] = (out[w] &^ (uint64(0xffff) << s)) | uint64(choose)<<s
	}
	if identityChanges > chosenChanges {
		c.Stats.BitsSaved += uint64(identityChanges - chosenChanges)
	}
	c.aux[a] = newAux
	c.Stats.Encodes++
	c.Stats.VulnerableCells += uint64(vulnerableCount(stored, out))
	return out
}

// cost ranks a candidate group coding.
type cost struct {
	risk    int // vulnerable victims + weighted edge aggressors
	changes int // cells programmed
}

// better reports whether a is preferable to b: lower risk first, then fewer
// programmed cells, with a (identity) winning exact ties for stable aux bits.
func better(a, b cost) bool {
	if a.risk != b.risk {
		return a.risk < b.risk
	}
	return a.changes <= b.changes
}

// groupCost evaluates writing cand over old within one 16-cell group,
// counting in-group victims, the boundary pair with the already-fixed cell
// to the left, and segment-edge aggressors.
func groupCost(old, cand uint16, hasLeft bool, leftOld, leftNew uint64, atSegStart, atSegEnd bool) cost {
	resets := old &^ cand     // cells pulsed 1→0
	idle := ^(old ^ cand)     // cells not programmed
	amorphous := idle & ^cand // idle cells reading 0
	changes := bits.OnesCount16(old ^ cand)
	risk := bits.OnesCount16(amorphous & ((resets << 1) | (resets >> 1)))
	if hasLeft {
		leftIdle := leftOld == leftNew
		if leftIdle && leftNew == 0 && resets&1 != 0 {
			risk++ // our bit 0 resetting victimises the fixed left cell
		}
		if leftOld == 1 && leftNew == 0 && amorphous&1 != 0 {
			risk++ // the left cell's RESET victimises our idle bit 0
		}
	}
	if atSegStart && resets&1 != 0 {
		risk += edgePenalty // threatens previous slot's line (unverifiable)
	}
	if atSegEnd && resets&(1<<15) != 0 {
		risk += edgePenalty // threatens next slot's line
	}
	return cost{risk: risk, changes: changes}
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

// vulnerableCount counts the victims a write's own differential pulses
// create (for codec statistics).
func vulnerableCount(old, new pcm.Line) int {
	reset, _ := pcm.DiffMasks(old, new)
	return Vulnerable(reset, old, new).PopCount()
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

// Forget drops the codec's aux state for a line (used when a line is
// decommissioned, e.g. marked no-use by the (n:m) allocator).
func (c *Codec) Forget(a pcm.LineAddr) {
	if c != nil {
		delete(c.aux, a)
	}
}

// AuxBits exposes a line's current coding word for inspection/testing.
func (c *Codec) AuxBits(a pcm.LineAddr) uint32 {
	if c == nil {
		return 0
	}
	return c.aux[a]
}

// sanity check at init: exactly one 64-bit word per chip segment.
var _ = func() struct{} {
	if SegmentBits != 64 {
		panic(fmt.Sprintf("din: SegmentBits = %d, expected 64", SegmentBits))
	}
	return struct{}{}
}()
