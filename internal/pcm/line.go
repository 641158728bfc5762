package pcm

import "math/bits"

// Line is the content of one 64 B memory line as eight 64-bit words.
// Bit i of the line is word i/64, bit i%64 (LSB first).
type Line [LineWords]uint64

// Mask is a per-bit mask over a line, same layout as Line.
type Mask [LineWords]uint64

// Bit returns bit i of the line (0 = amorphous/RESET, 1 = crystalline/SET).
func (l *Line) Bit(i int) uint64 { return (l[i>>6] >> (uint(i) & 63)) & 1 }

// SetBit sets bit i to v (0 or 1).
func (l *Line) SetBit(i int, v uint64) {
	w, b := i>>6, uint(i)&63
	l[w] = (l[w] &^ (1 << b)) | ((v & 1) << b)
}

// Equal reports whether two lines hold identical content.
func (l Line) Equal(o Line) bool { return l == o }

// PopCount returns the number of 1 (crystalline) bits in the line.
func (l Line) PopCount() int {
	n := 0
	for _, w := range l {
		n += bits.OnesCount64(w)
	}
	return n
}

// Xor returns the bitwise difference between two lines as a mask.
func (l Line) Xor(o Line) Mask {
	var m Mask
	for i := range l {
		m[i] = l[i] ^ o[i]
	}
	return m
}

// Bit returns bit i of the mask.
func (m *Mask) Bit(i int) uint64 { return (m[i>>6] >> (uint(i) & 63)) & 1 }

// SetBit sets bit i of the mask to 1.
func (m *Mask) SetBit(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// ClearBit clears bit i of the mask.
func (m *Mask) ClearBit(i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// PopCount returns the number of set bits in the mask.
func (m Mask) PopCount() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether the mask has at least one set bit.
func (m Mask) Any() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or returns the union of two masks.
func (m Mask) Or(o Mask) Mask {
	var r Mask
	for i := range m {
		r[i] = m[i] | o[i]
	}
	return r
}

// And returns the intersection of two masks.
func (m Mask) And(o Mask) Mask {
	var r Mask
	for i := range m {
		r[i] = m[i] & o[i]
	}
	return r
}

// AndNot returns m with o's bits cleared.
func (m Mask) AndNot(o Mask) Mask {
	var r Mask
	for i := range m {
		r[i] = m[i] &^ o[i]
	}
	return r
}

// Bits returns the indices of all set bits, ascending. It allocates; hot
// paths use AppendBits instead.
func (m Mask) Bits() []int {
	return m.AppendBits(make([]int, 0, m.PopCount()))
}

// AppendBits appends the indices of all set bits, ascending, to dst and
// returns the extended slice. With a caller-owned scratch buffer the append
// is allocation-free once the buffer has grown to the working-set size.
func (m Mask) AppendBits(dst []int) []int {
	for w, word := range m {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*64+b)
			word &= word - 1
		}
	}
	return dst
}

// DiffMasks computes the differential-write pulse maps for updating a line
// from old to new: reset holds the cells that must be driven 1→0 (RESET
// pulses) and set the cells driven 0→1 (SET pulses). Unchanged cells appear
// in neither mask and are not programmed at all.
func DiffMasks(old, new Line) (reset, set Mask) {
	for i := range old {
		reset[i] = old[i] &^ new[i]
		set[i] = new[i] &^ old[i]
	}
	return
}

// ApplyMasks returns old with reset bits cleared and set bits set; it is the
// device-side effect of programming the two pulse maps.
func ApplyMasks(old Line, reset, set Mask) Line {
	var out Line
	for i := range old {
		out[i] = (old[i] &^ reset[i]) | set[i]
	}
	return out
}
