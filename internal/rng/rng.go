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

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// NormFloat64 returns a normally distributed value with mean 0 and stddev 1,
// using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * sqrtNeg2LogOverS(s)
	}
}

// Poisson returns a Poisson-distributed value with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		v := mean + sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials. It returns 0 for p >= 1 and panics for
// p <= 0; a run of more than 2^24 failures stops at 2^24+1.
//
// Each trial consumes one Uint64 and is exactly Bernoulli's Float64() < p:
// k = Uint64()>>11 is an integer below 2^53 and Float64() is k/2^53, both
// exact, so the trial succeeds iff k < p·2^53 (itself exact, a power-of-two
// scaling), iff k < ceil(p·2^53). The loop runs the xoshiro step on local
// copies of the state against that integer threshold and stores the state
// once, so the drawn values and the final State match the trial-by-trial
// Bernoulli loop.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	var thr uint64 // a NaN p never succeeds, as Float64() < NaN never holds
	if p == p {
		thr = uint64(ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	n := 0
	for {
		k := bits.RotateLeft64(s1*5, 7) * 9 >> 11
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		if k < thr {
			break
		}
		n++
		if n > 1<<24 { // defensive bound for absurdly small p
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n
}
