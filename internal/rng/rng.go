// Package rng provides a small, deterministic, splittable random number
// generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// stochastic decision (write-disturbance flips, workload address streams,
// hard-error placement) must be replayable from a single root seed so that
// paper figures regenerate bit-identically across runs and machines. The
// standard library's math/rand is seedable but offers no principled way to
// derive independent substreams; this package implements xoshiro256** seeded
// via SplitMix64, with a Split operation for creating statistically
// independent child generators.
package rng

import "math/bits"

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is not safe for concurrent use; use Split to give each goroutine or
// subsystem its own stream.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used for seeding so that nearby seeds produce unrelated states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Any seed, including zero, yields
// a valid non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a not-all-zero state; splitmix64 outputs make an
	// all-zero state astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// State returns the generator's internal xoshiro256** state, for
// checkpointing. SetState with the returned value reproduces the stream
// exactly from this point.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// obtained from State. An all-zero state is degenerate (xoshiro would emit
// zeros forever) and is rejected by falling back to the guard state New
// uses; State never returns one, so this only triggers on corrupt input.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	r.s = s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// xoshiro is the generator state as four scalars, stepped as Uint64 steps
// r.s. The sampling kernels keep it in registers across a whole loop and
// store it back once; a value receiver keeps it that way, where a pointer
// receiver would move it to the stack.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

func (r *Rand) local() xoshiro { return xoshiro{r.s[0], r.s[1], r.s[2], r.s[3]} }

func (r *Rand) store(x xoshiro) { r.s = [4]uint64{x.s0, x.s1, x.s2, x.s3} }

// next returns the state after one step and the step's output.
func (x xoshiro) next() (xoshiro, uint64) {
	v := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return x, v
}

// Split returns a new generator whose stream is statistically independent of
// the parent's subsequent output. The parent is advanced.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitLabeled returns a child generator derived from both the parent stream
// and a label, so that differently-labeled subsystems obtain unrelated
// streams even if created in a different order.
func (r *Rand) SplitLabeled(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// SplitLabeledSeq derives n children labeled "<prefix>-0" .. "<prefix>-(n-1)",
// in index order. The parent advances exactly n times regardless of how the
// children are later consumed, so each child stream (one per PCM bank, say)
// depends only on its index, never on the order its siblings are drawn in.
func (r *Rand) SplitLabeledSeq(prefix string, n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.SplitLabeled(prefix + "-" + itoa(i))
	}
	return out
}

// itoa formats a small non-negative int without importing strconv.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Uint64n returns a uniform value in [0,n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.boundedUint64(n)
}

// boundedUint64 implements Lemire's nearly-divisionless bounded generation.
func (r *Rand) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials. It returns 0 for p >= 1 and panics for
// p <= 0; a run of more than 2^24 failures stops at 2^24+1.
//
// Each trial consumes one Uint64 and is exactly Bernoulli's Float64() < p
// (see Chance). The loop runs the xoshiro step on local copies of the state
// against the integer threshold and stores the state once, so the drawn
// values and the final State match the trial-by-trial Bernoulli loop.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	thr := NewChance(p).thr
	x := r.local()
	n := 0
	for {
		var k uint64
		x, k = x.next()
		if k>>11 < thr {
			break
		}
		n++
		if n > 1<<24 { // defensive bound for absurdly small p
			break
		}
	}
	r.store(x)
	return n
}

// Chance is a probability converted once into the integer test a draw is
// compared against, so a caller that tries the same p many times pays for
// the float conversion once. A trial against a Chance is exactly
// Bernoulli(p): k = Uint64()>>11 is an integer below 2^53 and Float64() is
// k/2^53, both exact; p·2^53 is exact too (a power-of-two scaling), and an
// integer is below a real x exactly when it is below ceil(x). So
// Float64() < p holds iff k < ceil(p·2^53). Like Bernoulli, a trial draws
// nothing for p <= 0 (never hits) or p >= 1 (always hits), and one value
// for a NaN p, which never hits because Float64() < NaN never holds.
type Chance struct {
	thr  uint64 // a draw hits iff Uint64()>>11 < thr
	draw bool   // false: the trial is decided without a draw, by thr != 0
}

// NewChance converts p into a Chance.
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return Chance{}
	case p >= 1:
		return Chance{thr: 1 << 53}
	case p != p: // NaN: draws, never hits
		return Chance{draw: true}
	}
	return Chance{thr: uint64(ceil(p * (1 << 53))), draw: true}
}

// Hit runs one trial against c; it draws and decides exactly as
// Bernoulli(p) does.
func (r *Rand) Hit(c Chance) bool {
	if !c.draw {
		return c.thr != 0
	}
	return r.Uint64()>>11 < c.thr
}

// SampleBits runs one trial against c per set bit of mask, in ascending bit
// order (word 0's bit 0 first), stores the bits that hit in hits and
// returns their count. hits may alias mask and must be at least as long.
// The draws and the final State are those of calling Hit once per set bit
// in that order: the ascending visit is part of the simulator's
// determinism contract. The xoshiro state stays in locals for the whole
// mask.
func (r *Rand) SampleBits(hits, mask []uint64, c Chance) int {
	hits = hits[:len(mask)]
	if !c.draw {
		n := 0
		for w, m := range mask {
			if c.thr == 0 {
				m = 0
			}
			hits[w] = m
			n += bits.OnesCount64(m)
		}
		return n
	}
	thr := c.thr
	x := r.local()
	n := 0
	for w, m := range mask {
		var h uint64
		for m != 0 {
			low := m & -m
			m ^= low
			var k uint64
			x, k = x.next()
			if k>>11 < thr {
				h |= low
			}
		}
		hits[w] = h
		n += bits.OnesCount64(h)
	}
	r.store(x)
	return n
}

// SampleValues runs one trial against c per element of vals, in index
// order, and after each hit draws one more Uint64 into that element (the
// elements of misses are left as they are). It returns the hits as a bit
// set, bit i for vals[i]; vals holds at most 64 elements. The draws and the
// final State are those of the loop "if Hit(c) { vals[i] = Uint64() }".
func (r *Rand) SampleValues(vals []uint64, c Chance) uint64 {
	if len(vals) > 64 {
		panic("rng: SampleValues over more than 64 values")
	}
	thr, draw := c.thr, c.draw
	x := r.local()
	var hits uint64
	for i := range vals {
		hit := thr != 0
		if draw {
			var k uint64
			x, k = x.next()
			hit = k>>11 < thr
		}
		if !hit {
			continue
		}
		hits |= 1 << uint(i)
		x, vals[i] = x.next()
	}
	r.store(x)
	return hits
}
