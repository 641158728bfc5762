package topo

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzParseSpec drives outside input through the full decode path a served
// job takes: ParseSpec, Validate, then Resolve against the default 8 GB
// device. Every stage must either reject the input with a *SpecError or, at
// the end, return placements that tile [0, memPages) contiguously with
// positive, bank-aligned sizes. A panic or hang fails too.
func FuzzParseSpec(f *testing.F) {
	const memPages, regionPages = 1 << 21, 16384
	demo, err := json.Marshal(Demo2()) // the fig-topo2 spec
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(demo),
		`{"modules":[{}]}`,
		`{"modules":[{"name":"near"},{"banks":8}]}`,
		`{"modules":[{"link_cycles":100,"banks":8,"name":"x"}]}`,
		`{"modules":[{"pages":100},{"start":50,"pages":100}]}`,
		`{"modules":[{"start":0,"pages":64},{"start":64,"pages":128},{"start":192,"pages":64}]}`,
		`{"modules":[{"pages":64},{"start":128,"pages":64}]}`,
		`{"modules":[{"banks":12}]}`,
		`{"modules":[{"bit_line_rate":1.5}]}`,
		`{"modules":[{"scheme":"vnc"},{"scheme":"nope"}]}`,
		`{"modules":[{"pages":24,"banks":16},{"pages":1000}]}`,
		`{"modules":[{"bankz":8}]}`,
		`{"modules":[{}]}{"modules":[{}]}`,
		`{"modules":[{"pages":4611686018427387904},{"pages":4611686018427387904},{"pages":4611686018427387904},{"pages":4611686018429485056}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rejected := func(stage string, err error) bool {
			if err == nil {
				return false
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("%s returned an untyped error: %v", stage, err)
			}
			return true
		}
		s, err := ParseSpec(data)
		if rejected("ParseSpec", err) {
			return
		}
		if rejected("Validate", s.Validate(nil)) {
			return
		}
		pls, err := s.Resolve(memPages, regionPages)
		if rejected("Resolve", err) {
			return
		}
		if len(pls) != len(s.Modules) {
			t.Fatalf("%d placements for %d modules", len(pls), len(s.Modules))
		}
		next := 0
		for i, p := range pls {
			if p.Index != i || p.Start != next || p.Pages <= 0 || p.Banks <= 0 || p.Pages%p.Banks != 0 || p.Pages > memPages-next {
				t.Fatalf("placement %d = %+v after %d laid-out pages of %d", i, p, next, memPages)
			}
			next += p.Pages
		}
		if next != memPages {
			t.Fatalf("placements cover %d of %d pages", next, memPages)
		}
	})
}
