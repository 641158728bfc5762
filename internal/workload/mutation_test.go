package workload

import (
	"math"
	"testing"

	"sdpcm/internal/rng"
)

// legacyMutate is the original in-place volatility model, kept verbatim as
// the reference: DrawMutation+Apply must consume the RNG and transform the
// line identically, or every golden table silently shifts.
func legacyMutate(rnd *rng.Rand, prob float64, old [8]uint64) [8]uint64 {
	out := old
	changed := false
	for w := range out {
		for c := uint(0); c < 4; c++ {
			if rnd.Bernoulli(prob) {
				fresh := rnd.Uint64() & 0xffff
				out[w] = out[w]&^(uint64(0xffff)<<(16*c)) | fresh<<(16*c)
				changed = true
			}
		}
	}
	if !changed {
		i := rnd.Uint64n(32)
		w, c := i/4, uint(i%4)
		fresh := rnd.Uint64() & 0xffff
		out[w] = out[w]&^(uint64(0xffff)<<(16*c)) | fresh<<(16*c)
	}
	return out
}

func TestDrawMutationMatchesLegacyMutate(t *testing.T) {
	for _, prob := range []float64{0, 0.001, 0.06, 0.33, 1} {
		a, b := rng.New(77), rng.New(77)
		old := [8]uint64{}
		for i := range old {
			old[i] = a.Uint64()
			b.Uint64()
		}
		for i := 0; i < 2000; i++ {
			want := legacyMutate(a, prob, old)
			got := DrawMutation(b, prob).Apply(old)
			if got != want {
				t.Fatalf("prob=%v iter %d: Draw+Apply %x != legacy %x", prob, i, got, want)
			}
			// RNG streams must stay in lockstep too.
			if a.Uint64() != b.Uint64() {
				t.Fatalf("prob=%v iter %d: RNG consumption diverged", prob, i)
			}
			old = want
		}
	}
}

func TestDrawMutationAlwaysChanges(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if m := DrawMutation(r, 0); m.Mask == 0 {
			t.Fatal("mutation with empty mask")
		}
	}
}

// oracleDrawMutation is DrawMutation one Bernoulli trial at a time, as it
// was written before the chunk trials became one rng.SampleValues kernel.
func oracleDrawMutation(rnd *rng.Rand, prob float64) Mutation {
	var m Mutation
	for w := 0; w < 8; w++ {
		for c := 0; c < 4; c++ {
			if rnd.Bernoulli(prob) {
				idx := w*4 + c
				m.Fresh[idx] = uint16(rnd.Uint64() & 0xffff)
				m.Mask |= 1 << idx
			}
		}
	}
	if m.Mask == 0 {
		i := rnd.Uint64n(32)
		m.Fresh[i] = uint16(rnd.Uint64() & 0xffff)
		m.Mask = 1 << i
	}
	return m
}

// TestDrawMutationMatchesOracle compares every drawn mutation and the final
// RNG state with the Bernoulli-loop oracle, at the workloads' volatilities
// and at the clamps, a rate past 1 and NaN.
func TestDrawMutationMatchesOracle(t *testing.T) {
	for _, p := range []float64{0, 1e-9, 0.06, 0.099, 0.115, 0.33, 0.5, 1, 1.5, math.NaN()} {
		got, want := rng.New(42), rng.New(42)
		for i := 0; i < 5000; i++ {
			if g, w := DrawMutation(got, p), oracleDrawMutation(want, p); g != w {
				t.Fatalf("p %v draw %d: %+v, oracle %+v", p, i, g, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("p %v: final state %x, oracle %x", p, got.State(), want.State())
		}
	}
}

// BenchmarkDrawMutation draws mcf's write-back payloads (a third of the 32
// chunks rewritten), as the per-core producers do for every write.
func BenchmarkDrawMutation(b *testing.B) {
	spec, err := ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.DrawMutation()
	}
}
