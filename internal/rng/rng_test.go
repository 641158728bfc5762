package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 64 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced degenerate stream: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}
}

func TestSplitLabeledOrderIndependent(t *testing.T) {
	// Same parent state + same label must give the same child stream.
	p1, p2 := New(9), New(9)
	a := p1.SplitLabeled("wd")
	b := p2.SplitLabeled("wd")
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("labeled splits from identical parents diverged")
		}
	}
	// Different labels from identical parents must differ.
	p3, p4 := New(9), New(9)
	c := p3.SplitLabeled("wd")
	d := p4.SplitLabeled("alloc")
	if c.Uint64() == d.Uint64() {
		t.Fatal("differently-labeled splits collided")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const p, draws = 0.115, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(15)
	const p, draws = 0.25, 50000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / draws
	want := (1 - p) / p // mean failures before success
	if math.Abs(got-want) > want*0.05 {
		t.Fatalf("Geometric(%v) empirical mean %v, want ~%v", p, got, want)
	}
	if r.Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

// oracleGeometric is Geometric's definition, one Bernoulli trial at a time:
// the reference the threshold kernel must match value for value and state
// for state.
func oracleGeometric(r *Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	n := 0
	for !r.Bernoulli(p) {
		n++
		if n > 1<<24 {
			return n
		}
	}
	return n
}

// checkGeometric draws n values from seed at p with Geometric and with the
// oracle, and fails on the first differing value or a differing final state.
func checkGeometric(t *testing.T, seed uint64, p float64, n int) {
	t.Helper()
	got, want := New(seed), New(seed)
	for i := 0; i < n; i++ {
		if g, w := got.Geometric(p), oracleGeometric(want, p); g != w {
			t.Fatalf("seed %d p %v draw %d: Geometric %d, oracle %d", seed, p, i, g, w)
		}
	}
	if got.State() != want.State() {
		t.Fatalf("seed %d p %v: final state %x, oracle %x", seed, p, got.State(), want.State())
	}
}

// TestGeometricMatchesOracle pins the threshold kernel to the Bernoulli loop
// at the workloads' gap parameters (0.0179 bwaves, 0.0448 mcf) and around
// them, and at the 2^24 bound (a tiny and a NaN p).
func TestGeometricMatchesOracle(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for _, p := range []float64{0.9, 0.5, 0.1, 0.0448, 0.0179, 1e-3, 1.0 / 3} {
		checkGeometric(t, 42, p, draws)
	}
	// Both stop at the 2^24 bound: 1e-12 does not succeed that soon at this
	// seed, and a NaN p never does.
	for _, p := range []float64{1e-12, math.NaN()} {
		checkGeometric(t, 7, p, 1)
	}
}

// FuzzGeometric compares Geometric with the oracle on fuzzed seeds and p.
// A p below 1e-4 (or NaN) is skipped, as it averages ten thousand trials or
// more a draw; the bound case is TestGeometricMatchesOracle's.
func FuzzGeometric(f *testing.F) {
	for _, p := range []float64{0.9, 0.5, 0.1, 0.0448, 0.0179, 1e-3, 1.0 / 3,
		0.5 + 0x1p-53, 1e-4, 1 - 0x1p-53, 1, 2} {
		f.Add(uint64(42), p)
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64) {
		if !(p >= 1e-4) {
			t.Skip()
		}
		checkGeometric(t, seed, p, 64)
	})
}

// sampleProbs are the rates the Chance kernels are checked at: the Table 1
// word-line and bit-line rates, both clamps, a rate whose threshold is 1, an
// even split, a rate past 1 and NaN (one draw a trial, never a hit).
var sampleProbs = []float64{0, 1e-9, 0.099, 0.115, 0.5, 1, 1.5, math.NaN(), -0.5}

// TestChanceMatchesBernoulli compares Hit(NewChance(p)) with Bernoulli(p)
// trial by trial and the final State.
func TestChanceMatchesBernoulli(t *testing.T) {
	for _, p := range append(sampleProbs, 0.5+0x1p-53, 1-0x1p-53, 0x1p-53, 0x1p-54) {
		got, want := New(42), New(42)
		c := NewChance(p)
		for i := 0; i < 20_000; i++ {
			if g, w := got.Hit(c), want.Bernoulli(p); g != w {
				t.Fatalf("p %v trial %d: Hit %v, Bernoulli %v", p, i, g, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("p %v: final state %x, Bernoulli %x", p, got.State(), want.State())
		}
	}
}

// oracleSampleBits is SampleBits' definition: one Bernoulli trial per set
// bit, ascending.
func oracleSampleBits(r *Rand, mask []uint64, p float64) ([]uint64, int) {
	hits := make([]uint64, len(mask))
	n := 0
	for b := 0; b < 64*len(mask); b++ {
		if mask[b/64]>>(b%64)&1 != 0 && r.Bernoulli(p) {
			hits[b/64] |= 1 << (b % 64)
			n++
		}
	}
	return hits, n
}

// checkSampleBits samples masks drawn from maskSeed at p, through the kernel
// and the oracle, and fails on the first differing hit set or count or a
// differing final state. Each mask word keeps a share of its bits set by
// density/8, so sparse and full words both occur.
func checkSampleBits(t *testing.T, seed, maskSeed uint64, p float64, masks int) {
	t.Helper()
	got, want := New(seed), New(seed)
	mr := New(maskSeed)
	mask := make([]uint64, 8)
	hits := make([]uint64, 8)
	for i := 0; i < masks; i++ {
		for w := range mask {
			m := mr.Uint64()
			for d := mr.Intn(4); d > 0; d-- {
				m &= mr.Uint64()
			}
			if mr.Intn(8) == 0 {
				m = 0
			}
			mask[w] = m
		}
		n := got.SampleBits(hits, mask, NewChance(p))
		wantHits, wantN := oracleSampleBits(want, mask, p)
		if n != wantN || !slices.Equal(hits, wantHits) {
			t.Fatalf("seed %d p %v mask %d: SampleBits %x (%d), oracle %x (%d)", seed, p, i, hits, n, wantHits, wantN)
		}
	}
	if got.State() != want.State() {
		t.Fatalf("seed %d p %v: final state %x, oracle %x", seed, p, got.State(), want.State())
	}
}

// TestSampleMatchesBernoulli pins SampleBits to the Bernoulli loop over
// random masks, hits written in place over the mask included.
func TestSampleMatchesBernoulli(t *testing.T) {
	for _, p := range sampleProbs {
		checkSampleBits(t, 42, 5, p, 2000)
	}
	// In place: hits overwrite the mask they were sampled from.
	r, o := New(9), New(9)
	m := []uint64{^uint64(0), 0, 1 << 63, 0xf0f0, 1, 0, ^uint64(0) >> 1, 3}
	want, wantN := oracleSampleBits(o, m, 0.115)
	if n := r.SampleBits(m, m, NewChance(0.115)); n != wantN || !slices.Equal(m, want) || r.State() != o.State() {
		t.Fatalf("in-place SampleBits %x (%d), oracle %x (%d)", m, n, want, wantN)
	}
}

// FuzzSampleBits compares SampleBits with its Bernoulli-loop oracle on
// fuzzed seeds, masks and p.
func FuzzSampleBits(f *testing.F) {
	for _, p := range sampleProbs {
		f.Add(uint64(42), uint64(5), p)
	}
	f.Fuzz(func(t *testing.T, seed, maskSeed uint64, p float64) {
		checkSampleBits(t, seed, maskSeed, p, 16)
	})
}

// oracleSampleValues is SampleValues' definition, one Bernoulli trial and
// one more draw per hit at a time.
func oracleSampleValues(r *Rand, vals []uint64, p float64) uint64 {
	var hits uint64
	for i := range vals {
		if r.Bernoulli(p) {
			vals[i] = r.Uint64()
			hits |= 1 << i
		}
	}
	return hits
}

func TestSampleValuesMatchesBernoulli(t *testing.T) {
	for _, p := range sampleProbs {
		got, want := New(42), New(42)
		var g, w [32]uint64
		for i := 0; i < 2000; i++ {
			gh, wh := got.SampleValues(g[:], NewChance(p)), oracleSampleValues(want, w[:], p)
			if gh != wh || g != w {
				t.Fatalf("p %v draw %d: SampleValues %x %x, oracle %x %x", p, i, gh, g, wh, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("p %v: final state %x, oracle %x", p, got.State(), want.State())
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(16)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) returned %d", v)
		}
	}
}

func TestSplitLabeledSeq(t *testing.T) {
	// Children must match the equivalent manual SplitLabeled calls and
	// advance the parent identically.
	a, b := New(99), New(99)
	seq := a.SplitLabeledSeq("bank", 16)
	if len(seq) != 16 {
		t.Fatalf("got %d children", len(seq))
	}
	for i, c := range seq {
		want := b.SplitLabeled("bank-" + itoa(i))
		for j := 0; j < 8; j++ {
			if g, w := c.Uint64(), want.Uint64(); g != w {
				t.Fatalf("child %d draw %d: %#x != %#x", i, j, g, w)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after SplitLabeledSeq")
	}
	// Distinct children must be decorrelated.
	c0 := New(5).SplitLabeledSeq("bank", 2)
	if c0[0].Uint64() == c0[1].Uint64() {
		t.Fatal("bank-0 and bank-1 produced identical first draws")
	}
}

func TestItoa(t *testing.T) {
	for _, v := range []int{0, 1, 9, 10, 15, 123, 1 << 20} {
		if got, want := itoa(v), fmt.Sprint(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkSampleBits samples a bit-line victim mask at the Table 1
// bit-line rate: the 512 bits of a line with about half of them set.
func BenchmarkSampleBits(b *testing.B) {
	r := New(1)
	var mask, hits [8]uint64
	for w := range mask {
		mask[w] = r.Uint64()
	}
	c := NewChance(0.115)
	for i := 0; i < b.N; i++ {
		_ = r.SampleBits(hits[:], mask[:], c)
	}
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Bernoulli(0.115)
	}
}

// BenchmarkGeometric draws bwaves' instruction gaps: RPKI+WPKI = 17.92, so
// p = 1/(1000/17.92), about 55 trials a draw.
func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	p := 1 / (1000 / 17.92)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(p)
	}
}
