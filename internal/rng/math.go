package rng

import "math"

// A thin wrapper keeps rng.go free of a direct math import and documents the
// one math function the generator relies on.

func ceil(x float64) float64 { return math.Ceil(x) }
