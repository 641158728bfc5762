package ecp

import (
	"math"

	"sdpcm/internal/pcm"
)

// EndOfLifeMeanHardErrors is the mean per-line hard-error count when the
// DIMM reaches its lifetime limit. ECP was provisioned for hard errors
// (ECP-6); a DIMM is end-of-life when the tail of the distribution starts
// exceeding the entries. With a Poisson mean of 1.5, about 0.4% of lines
// have 6+ hard errors at end of life — the tail that actually retires the
// DIMM — while the typical line still keeps 4+ entries free for
// LazyCorrection, matching Fig. 14's near-flat performance curve.
const EndOfLifeMeanHardErrors = 1.5

// aging is the hard-error model of a DIMM at a fraction of its lifetime
// (§6.4 Fig. 14). A line's count follows a Poisson distribution with mean
// lambda = EndOfLifeMeanHardErrors × fraction, drawn by inverse CDF from a
// hash of the line address, so the same line always reports the same wear
// and runs stay reproducible. The zero value is a pristine DIMM.
type aging struct {
	lambda, expNegLambda float64
}

func newAging(lifetime float64) aging {
	lambda := EndOfLifeMeanHardErrors * lifetime
	return aging{lambda: lambda, expNegLambda: math.Exp(-lambda)}
}

// hardErrors returns the line's hard-error count: 0 on a pristine DIMM, and
// also for a negative or NaN lifetime, whose CDF starts at or above 1.
func (g aging) hardErrors(a pcm.LineAddr) int {
	if g.lambda == 0 {
		return 0
	}
	// SplitMix64 hash of the address → uniform in [0,1).
	z := uint64(a) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	// Inverse CDF of Poisson(lambda).
	p := g.expNegLambda
	cdf := p
	k := 0
	for u > cdf && k < 64 {
		k++
		p *= g.lambda / float64(k)
		cdf += p
	}
	return k
}
