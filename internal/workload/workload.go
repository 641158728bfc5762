// Package workload synthesises main-memory reference streams calibrated to
// the paper's Table 3 applications (SPEC2006 + STREAM).
//
// The paper captures, with PIN, ten million references to main memory per
// application after cache warm-up; we do not have SPEC inputs or PIN, so
// each benchmark is modelled as a parameterised stochastic address process
// reproducing the observable characteristics the evaluation depends on:
//
//   - memory intensity and read/write mix (Table 3 RPKI/WPKI);
//   - spatial behaviour (streaming vs hot-set vs pointer-chasing), which
//     drives bank conflict and row locality;
//   - footprint (distinct pages touched), which drives allocator pressure;
//   - per-write data volatility (fraction of a line rewritten), which
//     drives differential-write pulse counts and hence disturbance rates —
//     e.g. gemsFDTD "changes less bits per write" (§6.4).
//
// Generators are deterministic for a given seed and implement trace.Stream,
// so they can be consumed directly by the simulator or captured to trace
// files with sdpcm-trace.
package workload

import (
	"fmt"

	"sdpcm/internal/rng"
	"sdpcm/internal/trace"
)

// Spec describes one benchmark's memory behaviour.
type Spec struct {
	Name string
	// RPKI and WPKI are main-memory reads/writes per thousand instructions
	// (Table 3).
	RPKI, WPKI float64
	// FootprintPages is the number of distinct virtual pages the process
	// touches.
	FootprintPages int
	// SeqProb is the probability a reference continues the sequential
	// stream (streaming codes like STREAM/lbm are high; mcf is near zero).
	SeqProb float64
	// HotProb is the probability a non-sequential reference falls in the
	// hot set; HotFrac is the hot set's share of the footprint.
	HotProb, HotFrac float64
	// WriteChunkChange is the probability each 16-bit chunk of a line (32
	// chunks per 64 B) is rewritten with fresh random content by a write —
	// the data volatility knob. Calibrated so the average differential
	// write flips the bit counts behind the paper's §4.2 observation ("one
	// PCM line write triggers two WD errors in each of its adjacent
	// lines"); gemsFDTD is the low outlier (§6.4).
	WriteChunkChange float64
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.RPKI < 0 || s.WPKI < 0 || s.RPKI+s.WPKI == 0 {
		return fmt.Errorf("workload %s: RPKI+WPKI must be positive", s.Name)
	}
	if s.FootprintPages <= 0 {
		return fmt.Errorf("workload %s: footprint must be positive", s.Name)
	}
	for _, p := range []float64{s.SeqProb, s.HotProb, s.HotFrac, s.WriteChunkChange} {
		if p < 0 || p > 1 {
			return fmt.Errorf("workload %s: probability out of range", s.Name)
		}
	}
	return nil
}

// Table3 lists the paper's simulated applications with their published
// RPKI/WPKI and our behavioural parameterisation.
var Table3 = []Spec{
	{Name: "bwaves", RPKI: 17.45, WPKI: 0.47, FootprintPages: 3072,
		SeqProb: 0.80, HotProb: 0.50, HotFrac: 0.10, WriteChunkChange: 0.25},
	{Name: "gemsFDTD", RPKI: 9.62, WPKI: 6.67, FootprintPages: 3072,
		SeqProb: 0.70, HotProb: 0.50, HotFrac: 0.10, WriteChunkChange: 0.06},
	{Name: "lbm", RPKI: 14.59, WPKI: 7.29, FootprintPages: 4096,
		SeqProb: 0.85, HotProb: 0.40, HotFrac: 0.10, WriteChunkChange: 0.28},
	{Name: "leslie3d", RPKI: 2.39, WPKI: 0.04, FootprintPages: 2048,
		SeqProb: 0.75, HotProb: 0.50, HotFrac: 0.15, WriteChunkChange: 0.20},
	{Name: "mcf", RPKI: 22.38, WPKI: 20.47, FootprintPages: 8192,
		SeqProb: 0.05, HotProb: 0.35, HotFrac: 0.05, WriteChunkChange: 0.33},
	{Name: "wrf", RPKI: 0.14, WPKI: 0.02, FootprintPages: 1024,
		SeqProb: 0.60, HotProb: 0.60, HotFrac: 0.20, WriteChunkChange: 0.20},
	{Name: "xalan", RPKI: 0.13, WPKI: 0.13, FootprintPages: 1024,
		SeqProb: 0.20, HotProb: 0.70, HotFrac: 0.10, WriteChunkChange: 0.24},
	{Name: "zeusmp", RPKI: 4.11, WPKI: 3.36, FootprintPages: 3072,
		SeqProb: 0.65, HotProb: 0.45, HotFrac: 0.10, WriteChunkChange: 0.24},
	{Name: "stream", RPKI: 2.32, WPKI: 2.32, FootprintPages: 4096,
		SeqProb: 0.95, HotProb: 0.0, HotFrac: 0.0, WriteChunkChange: 0.30},
}

// ByName returns the Table 3 spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Table3 {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the benchmark names in Table 3 order.
func Names() []string {
	out := make([]string, len(Table3))
	for i, s := range Table3 {
		out[i] = s.Name
	}
	return out
}

// Generator emits an infinite, deterministic reference stream for one
// process (one core in the multi-programmed mix).
type Generator struct {
	spec Spec
	rnd  *rng.Rand

	cursor   uint64  // sequential stream position (line index)
	gapP     float64 // geometric parameter for instruction gaps
	hotPages int

	// The spec's trial probabilities, converted once.
	seq, hot, write, chunkChange rng.Chance
}

// relocate is the chance a random jump also moves the sequential stream.
var relocate = rng.NewChance(0.1)

// NewGenerator builds a generator for spec. Generators with the same spec
// and seed produce identical streams.
func NewGenerator(spec Spec, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	refsPerInstr := (spec.RPKI + spec.WPKI) / 1000
	// Mean instructions per reference, at least 1 (the ref itself).
	meanGap := 1/refsPerInstr - 1
	gapP := 1.0
	if meanGap > 0 {
		gapP = 1 / (meanGap + 1)
	}
	hot := int(float64(spec.FootprintPages) * spec.HotFrac)
	if hot <= 0 {
		hot = 1
	}
	g := &Generator{
		spec:        spec,
		rnd:         rng.New(seed).SplitLabeled("workload:" + spec.Name),
		gapP:        gapP,
		hotPages:    hot,
		seq:         rng.NewChance(spec.SeqProb),
		hot:         rng.NewChance(spec.HotProb),
		write:       rng.NewChance(spec.WPKI / (spec.RPKI + spec.WPKI)),
		chunkChange: rng.NewChance(spec.WriteChunkChange),
	}
	g.cursor = g.rnd.Uint64n(uint64(spec.FootprintPages) * 64)
	return g, nil
}

// Spec returns the generator's specification.
func (g *Generator) Spec() Spec { return g.spec }

// Next implements trace.Stream; generators never exhaust.
func (g *Generator) Next() (trace.Record, bool) {
	var line uint64
	totalLines := uint64(g.spec.FootprintPages) * 64
	switch {
	case g.rnd.Hit(g.seq):
		g.cursor = (g.cursor + 1) % totalLines
		line = g.cursor
	case g.rnd.Hit(g.hot):
		page := g.rnd.Uint64n(uint64(g.hotPages))
		line = page*64 + g.rnd.Uint64n(64)
	default:
		line = g.rnd.Uint64n(totalLines)
		// Random jumps also relocate the sequential stream occasionally,
		// as when a streaming kernel moves to its next array.
		if g.rnd.Hit(relocate) {
			g.cursor = line
		}
	}
	kind := trace.Read
	if g.rnd.Hit(g.write) {
		kind = trace.Write
	}
	gap := uint32(g.rnd.Geometric(g.gapP))
	return trace.Record{Kind: kind, Line: line, Gap: gap}, true
}

// Mutator produces write-back payloads for replayed traces, which carry
// addresses but no data: it applies the same chunk-level volatility model
// the live generators use.
type Mutator struct {
	rnd    *rng.Rand
	chance rng.Chance
}

// NewMutator builds a mutator with the given per-16-bit-chunk rewrite
// probability (clamped to (0,1]; non-positive values select a typical 0.15).
func NewMutator(prob float64, seed uint64) *Mutator {
	if prob <= 0 {
		prob = 0.15
	}
	if prob > 1 {
		prob = 1
	}
	return &Mutator{rnd: rng.New(seed).SplitLabeled("mutator"), chance: rng.NewChance(prob)}
}

// Capture materialises n records from the generator into a slice.
func Capture(g *Generator, n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i], _ = g.Next()
	}
	return out
}

// MixSpec names a multi-programmed workload: one benchmark per core, as in
// §5.2 ("each core runs one copy of these applications").
type MixSpec struct {
	Name  string
	Cores []string // benchmark per core
}

// HomogeneousMix builds the paper's configuration: every core runs a copy of
// the same benchmark.
func HomogeneousMix(bench string, cores int) MixSpec {
	c := make([]string, cores)
	for i := range c {
		c[i] = bench
	}
	return MixSpec{Name: bench, Cores: c}
}

// Generators instantiates one generator per core with decorrelated seeds.
func (m MixSpec) Generators(seed uint64) ([]*Generator, error) {
	out := make([]*Generator, len(m.Cores))
	for i, b := range m.Cores {
		spec, err := ByName(b)
		if err != nil {
			return nil, err
		}
		g, err := NewGenerator(spec, seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}
