package workload

import "sdpcm/internal/snap"

// State is a source's position in its stream: the RNG words and, for a
// Generator, the sequential cursor. Spec-derived parameters are rebuilt
// identically by construction, so State is all a source needs to resume.
type State struct {
	RNG    [4]uint64
	Cursor uint64 // unused by a Mutator
}

// State returns the generator's current position.
func (g *Generator) State() State { return State{RNG: g.rnd.State(), Cursor: g.cursor} }

// SetState moves the generator to a position State returned.
func (g *Generator) SetState(s State) {
	g.rnd.SetState(s.RNG)
	g.cursor = s.Cursor
}

// Clone returns an independent generator at the same position.
func (g *Generator) Clone() *Generator {
	c := *g
	r := *g.rnd
	c.rnd = &r
	return &c
}

// EncodeState serializes the generator's mutable state: the RNG stream
// position and the sequential cursor.
func (g *Generator) EncodeState(e *snap.Encoder) {
	e.Begin("workload.generator")
	s := g.State()
	for _, w := range s.RNG {
		e.U64(w)
	}
	e.U64(s.Cursor)
	e.End()
}

// DecodeState restores state written by EncodeState into a generator built
// with the same spec and seed.
func (g *Generator) DecodeState(d *snap.Decoder) error {
	d.Begin("workload.generator")
	var s State
	for i := range s.RNG {
		s.RNG[i] = d.U64()
	}
	s.Cursor = d.U64()
	g.SetState(s)
	d.End()
	return d.Err()
}

// State returns the mutator's current position.
func (m *Mutator) State() State { return State{RNG: m.rnd.State()} }

// SetState moves the mutator to a position State returned.
func (m *Mutator) SetState(s State) { m.rnd.SetState(s.RNG) }

// Clone returns an independent mutator at the same position.
func (m *Mutator) Clone() *Mutator {
	c := *m
	r := *m.rnd
	c.rnd = &r
	return &c
}

// EncodeState serializes the mutator's RNG stream position; the rewrite
// probability is a construction parameter.
func (m *Mutator) EncodeState(e *snap.Encoder) {
	e.Begin("workload.mutator")
	for _, w := range m.State().RNG {
		e.U64(w)
	}
	e.End()
}

// DecodeState restores state written by EncodeState.
func (m *Mutator) DecodeState(d *snap.Decoder) error {
	d.Begin("workload.mutator")
	var s State
	for i := range s.RNG {
		s.RNG[i] = d.U64()
	}
	m.SetState(s)
	d.End()
	return d.Err()
}
