package workload

import (
	"math/bits"

	"sdpcm/internal/rng"
)

// Mutation is one pre-drawn write-back payload: which 16-bit chunks of the
// line are rewritten and with what content. Separating the stochastic draw
// (DrawMutation, consuming the workload RNG) from its application to line
// content (Apply, pure) lets the simulator draw a mutation in the core's
// RNG order while the owning bank's controller supplies the latest stored
// data it applies to.
type Mutation struct {
	Mask  uint32     // bit i set: chunk i (word i/4, 16-bit lane i%4) is rewritten
	Fresh [32]uint16 // replacement content for chunks whose Mask bit is set
}

// DrawMutation draws a mutation from the volatility model: each of the 32
// chunks is rewritten with probability prob; if none is selected, one
// uniformly random chunk is rewritten (a write-back of a clean line never
// reaches memory). The RNG consumption is exactly that of the pre-existing
// in-place mutate path, so streams and goldens depend only on the model.
func DrawMutation(rnd *rng.Rand, prob float64) Mutation {
	return drawMutation(rnd, rng.NewChance(prob))
}

// drawMutation is DrawMutation at a converted probability: one trial per
// chunk in index order, each hit followed by the draw of its content.
func drawMutation(rnd *rng.Rand, c rng.Chance) Mutation {
	var m Mutation
	var fresh [32]uint64
	m.Mask = uint32(rnd.SampleValues(fresh[:], c))
	for mask := m.Mask; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask)
		m.Fresh[i] = uint16(fresh[i])
	}
	if m.Mask == 0 {
		i := rnd.Uint64n(32)
		m.Fresh[i] = uint16(rnd.Uint64() & 0xffff)
		m.Mask = 1 << i
	}
	return m
}

// Apply returns the line content after the mutation rewrites its chunks.
func (m Mutation) Apply(old [8]uint64) [8]uint64 {
	out := old
	for mask := m.Mask; mask != 0; mask &= mask - 1 {
		idx := bits.TrailingZeros32(mask)
		w, c := idx/4, uint(idx%4)
		out[w] = out[w]&^(uint64(0xffff)<<(16*c)) | uint64(m.Fresh[idx])<<(16*c)
	}
	return out
}

// DrawMutation draws this workload's next write-back payload.
func (g *Generator) DrawMutation() Mutation {
	return drawMutation(g.rnd, g.chunkChange)
}

// DrawMutation draws the next replayed-trace write-back payload.
func (m *Mutator) DrawMutation() Mutation {
	return drawMutation(m.rnd, m.chance)
}
