package rng

import "math"

// Thin wrappers keep the hot paths in rng.go free of direct math imports and
// document exactly which transcendental functions the generator relies on.

func ceil(x float64) float64 { return math.Ceil(x) }

// sqrtNeg2LogOverS computes sqrt(-2*ln(s)/s), the scaling factor of the
// Marsaglia polar method.
func sqrtNeg2LogOverS(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}
