package workload

import (
	"math"
	"testing"

	"sdpcm/internal/trace"
)

func TestAllSpecsValid(t *testing.T) {
	if len(Table3) != 9 {
		t.Fatalf("Table3 has %d entries, want 9", len(Table3))
	}
	for _, s := range Table3 {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if len(Names()) != len(Table3) {
		t.Fatal("Names length mismatch")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := ByName("lbm")
	g1, _ := NewGenerator(spec, 7)
	g2, _ := NewGenerator(spec, 7)
	for i := 0; i < 1000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 != r2 {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	// Different seeds differ.
	g3, _ := NewGenerator(spec, 8)
	same := 0
	for i := 0; i < 100; i++ {
		r1, _ := g1.Next()
		r3, _ := g3.Next()
		if r1 == r3 {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds matched %d/100 records", same)
	}
}

func TestCalibrationMatchesTable3(t *testing.T) {
	// The generated streams must reproduce the published RPKI/WPKI within
	// 10% (they are the calibration targets).
	for _, spec := range Table3 {
		g, err := NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs := Capture(g, 50000)
		st := trace.Summarize(recs)
		if rel := math.Abs(st.RPKI()-spec.RPKI) / spec.RPKI; rel > 0.10 {
			t.Errorf("%s: RPKI %v vs target %v (%.1f%% off)",
				spec.Name, st.RPKI(), spec.RPKI, rel*100)
		}
		if spec.WPKI > 0.1 {
			if rel := math.Abs(st.WPKI()-spec.WPKI) / spec.WPKI; rel > 0.15 {
				t.Errorf("%s: WPKI %v vs target %v (%.1f%% off)",
					spec.Name, st.WPKI(), spec.WPKI, rel*100)
			}
		}
	}
}

func TestFootprintRespected(t *testing.T) {
	for _, name := range []string{"mcf", "stream", "wrf"} {
		spec, _ := ByName(name)
		g, _ := NewGenerator(spec, 2)
		maxLine := uint64(spec.FootprintPages) * 64
		for i := 0; i < 20000; i++ {
			r, _ := g.Next()
			if r.Line >= maxLine {
				t.Fatalf("%s: line %d outside footprint of %d lines",
					name, r.Line, maxLine)
			}
		}
	}
}

func TestStreamingVsPointerChasing(t *testing.T) {
	// stream must be overwhelmingly sequential; mcf overwhelmingly not.
	seqFrac := func(name string) float64 {
		spec, _ := ByName(name)
		g, _ := NewGenerator(spec, 3)
		prev, _ := g.Next()
		seq := 0
		const n = 10000
		for i := 0; i < n; i++ {
			r, _ := g.Next()
			if r.Line == prev.Line+1 {
				seq++
			}
			prev = r
		}
		return float64(seq) / n
	}
	if f := seqFrac("stream"); f < 0.85 {
		t.Errorf("stream sequential fraction = %v, want > 0.85", f)
	}
	if f := seqFrac("mcf"); f > 0.15 {
		t.Errorf("mcf sequential fraction = %v, want < 0.15", f)
	}
}

func TestMutateLineVolatility(t *testing.T) {
	// gemsFDTD must change far fewer bits per write than mcf (§6.4).
	avgFlips := func(name string) float64 {
		spec, _ := ByName(name)
		g, _ := NewGenerator(spec, 4)
		var line [8]uint64
		total := 0
		const n = 2000
		for i := 0; i < n; i++ {
			next := g.DrawMutation().Apply(line)
			for w := range line {
				x := line[w] ^ next[w]
				for x != 0 {
					x &= x - 1
					total++
				}
			}
			line = next
		}
		return float64(total) / n
	}
	gems := avgFlips("gemsFDTD")
	mcf := avgFlips("mcf")
	if gems >= mcf/2 {
		t.Errorf("gemsFDTD flips/write = %v, mcf = %v; want gems << mcf", gems, mcf)
	}
	if gems < 1 {
		t.Errorf("gemsFDTD flips/write = %v, a write must change something", gems)
	}
}

func TestMutateLineAlwaysChanges(t *testing.T) {
	spec, _ := ByName("gemsFDTD") // lowest change probability
	g, _ := NewGenerator(spec, 5)
	var line [8]uint64
	for i := 0; i < 500; i++ {
		next := g.DrawMutation().Apply(line)
		if next == line {
			t.Fatal("a drawn mutation must always change at least one word")
		}
		line = next
	}
}

func TestHomogeneousMix(t *testing.T) {
	m := HomogeneousMix("lbm", 8)
	if m.Name != "lbm" || len(m.Cores) != 8 {
		t.Fatalf("mix = %+v", m)
	}
	gens, err := m.Generators(1)
	if err != nil || len(gens) != 8 {
		t.Fatalf("Generators: %v, %d", err, len(gens))
	}
	// Cores must have decorrelated streams.
	r0, _ := gens[0].Next()
	r1, _ := gens[1].Next()
	r2, _ := gens[2].Next()
	if r0 == r1 && r1 == r2 {
		t.Fatal("core streams are correlated")
	}
	// Unknown benchmark propagates an error.
	badMix := MixSpec{Name: "x", Cores: []string{"nope"}}
	if _, err := badMix.Generators(1); err == nil {
		t.Fatal("unknown benchmark in mix must error")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "a", RPKI: 0, WPKI: 0, FootprintPages: 1},
		{Name: "a", RPKI: 1, FootprintPages: 0},
		{Name: "a", RPKI: 1, FootprintPages: 1, SeqProb: 1.5},
		{Name: "a", RPKI: -1, WPKI: 2, FootprintPages: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestMutatorDeterminismAndClamping(t *testing.T) {
	m1 := NewMutator(0.2, 9)
	m2 := NewMutator(0.2, 9)
	var line [8]uint64
	for i := 0; i < 50; i++ {
		a := m1.DrawMutation().Apply(line)
		b := m2.DrawMutation().Apply(line)
		if a != b {
			t.Fatal("mutators with equal seeds diverged")
		}
		line = a
	}
	// Non-positive probability selects the default and still mutates.
	m := NewMutator(-1, 3)
	if m.DrawMutation().Apply(line) == line {
		t.Fatal("default-probability mutator must change the line")
	}
	// Probability 1 rewrites every chunk (almost surely != old).
	hot := NewMutator(5, 4) // clamped to 1
	if hot.DrawMutation().Apply(line) == line {
		t.Fatal("prob-1 mutator must rewrite")
	}
}

func TestMutatorMatchesGeneratorModel(t *testing.T) {
	// The mutator and the generator share the volatility model: average
	// flipped bits should be comparable for equal probabilities.
	spec, _ := ByName("lbm")
	g, _ := NewGenerator(spec, 7)
	m := NewMutator(spec.WriteChunkChange, 7)
	count := func(draw func() Mutation) float64 {
		var line [8]uint64
		total := 0
		for i := 0; i < 3000; i++ {
			next := draw().Apply(line)
			for w := range line {
				x := line[w] ^ next[w]
				for x != 0 {
					x &= x - 1
					total++
				}
			}
			line = next
		}
		return float64(total) / 3000
	}
	a := count(g.DrawMutation)
	b := count(m.DrawMutation)
	if a < b*0.8 || a > b*1.2 {
		t.Fatalf("generator flips %v vs mutator %v: models diverged", a, b)
	}
}

// TestStateAndClone: a clone continues the original's stream, and SetState
// rewinds a source to a position State returned, for generators (records
// and payloads) and mutators alike.
func TestStateAndClone(t *testing.T) {
	spec, _ := ByName("mcf")
	g, err := NewGenerator(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.Next()
	at := g.State()
	c := g.Clone()
	draw := func(g *Generator) (trace.Record, Mutation) {
		r, _ := g.Next()
		return r, g.DrawMutation()
	}
	r1, m1 := draw(g)
	if r2, m2 := draw(c); r1 != r2 || m1 != m2 {
		t.Fatal("clone diverged from its original")
	}
	g.SetState(at)
	if r2, m2 := draw(g); r1 != r2 || m1 != m2 {
		t.Fatal("SetState did not rewind the generator")
	}

	m := NewMutator(0.2, 9)
	mat := m.State()
	mc := m.Clone()
	a := m.DrawMutation()
	if b := mc.DrawMutation(); a != b {
		t.Fatal("mutator clone diverged from its original")
	}
	m.SetState(mat)
	if b := m.DrawMutation(); a != b {
		t.Fatal("SetState did not rewind the mutator")
	}
}
