package topo

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultIsDefault(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.IsDefault() {
		t.Error("nil spec should be default")
	}
	if !Default().IsDefault() {
		t.Error("Default() should be default")
	}
	if got, want := nilSpec.Canon(), Default().Canon(); got != want {
		t.Errorf("nil and Default() canon diverge: %q vs %q", got, want)
	}
	if Demo2().IsDefault() {
		t.Error("Demo2() must not be default")
	}
	if (&Spec{Modules: []Module{{Banks: 16}}}).IsDefault() {
		t.Error("an explicitly-configured single module is not the default topology")
	}
}

func TestValidateZeroModules(t *testing.T) {
	for _, s := range []*Spec{nil, {}, {Modules: []Module{}}} {
		if err := s.Validate(nil); err == nil {
			t.Errorf("zero-module spec %v validated", s)
		}
	}
}

func TestValidateUnknownScheme(t *testing.T) {
	known := func(name string) bool { return name == "vnc" }
	s := &Spec{Modules: []Module{{Scheme: "vnc"}, {Scheme: "nope"}}}
	err := s.Validate(known)
	if err == nil || !strings.Contains(err.Error(), `unknown scheme "nope"`) {
		t.Errorf("unknown scheme not rejected: %v", err)
	}
	// Without a lookup the name is not checked (topo cannot see the registry).
	if err := s.Validate(nil); err != nil {
		t.Errorf("nil lookup should skip scheme checking: %v", err)
	}
}

func TestValidateDuplicateNames(t *testing.T) {
	s := &Spec{Modules: []Module{{Name: "near"}, {Name: "near"}}}
	if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), `share the name "near"`) {
		t.Errorf("duplicate names not rejected: %v", err)
	}
	// An explicit name colliding with another module's "m<i>" default is the
	// same ambiguity.
	s = &Spec{Modules: []Module{{}, {Name: "m0"}}}
	if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), `share the name "m0"`) {
		t.Errorf("default-name collision not rejected: %v", err)
	}
}

func TestValidateRanges(t *testing.T) {
	cases := []struct {
		name string
		s    *Spec
		want string
	}{
		{"overlap", &Spec{Modules: []Module{
			{Pages: 100}, {Start: 50, Pages: 100},
		}}, "overlaps"},
		{"unsorted", &Spec{Modules: []Module{
			{Start: 0, Pages: 64}, {Start: 64, Pages: 64}, {Start: 32, Pages: 64},
		}}, "overlaps or is unsorted"},
		{"gap", &Spec{Modules: []Module{
			{Pages: 64}, {Start: 128, Pages: 64},
		}}, "gap"},
		{"missing pages", &Spec{Modules: []Module{
			{Pages: 64}, {Start: 64}, {Start: 128, Pages: 64},
		}}, "explicit pages"},
		{"bad banks", &Spec{Modules: []Module{{Banks: 12}}}, "power of two"},
		{"bad rate", &Spec{Modules: []Module{{BitLineRate: 1.5}}}, "WD rate"},
		// The page sum wraps int64 back to exactly 2^21: before the overflow
		// check this resolved to modules with negative starts.
		{"page sum overflow", &Spec{Modules: []Module{
			{Pages: 1 << 62}, {Pages: 1 << 62}, {Pages: 1 << 62}, {Pages: 1<<62 + 1<<21},
		}}, "overflow"},
		{"explicit range overflow", &Spec{Modules: []Module{
			{Pages: 1 << 62}, {Start: 1 << 62, Pages: 1 << 62}, {Start: 1<<63 - 1, Pages: 1 << 62},
		}}, "overflow"},
	}
	for _, tc := range cases {
		for _, err := range []error{tc.s.Validate(nil), resolveErr(tc.s)} {
			var se *SpecError
			if err == nil || !strings.Contains(err.Error(), tc.want) || !errors.As(err, &se) {
				t.Errorf("%s: got %v, want a *SpecError containing %q", tc.name, err, tc.want)
			}
		}
	}
	ok := &Spec{Modules: []Module{
		{Start: 0, Pages: 64}, {Start: 64, Pages: 128}, {Start: 192, Pages: 64},
	}}
	if err := ok.Validate(nil); err != nil {
		t.Errorf("sorted contiguous ranges rejected: %v", err)
	}
}

func resolveErr(s *Spec) error {
	_, err := s.Resolve(1<<21, 16384)
	return err
}

func TestResolveAutoLayout(t *testing.T) {
	s := &Spec{Modules: []Module{
		{Name: "near"},
		{Banks: 8},
	}}
	layout, err := s.Resolve(1<<10, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout) != 2 {
		t.Fatalf("got %d placements", len(layout))
	}
	if layout[0].Pages != 512 || layout[1].Pages != 512 {
		t.Errorf("equal split failed: %d/%d", layout[0].Pages, layout[1].Pages)
	}
	if layout[0].Start != 0 || layout[1].Start != 512 {
		t.Errorf("layout not contiguous: %d/%d", layout[0].Start, layout[1].Start)
	}
	if layout[0].Banks != DefaultBanks || layout[1].Banks != 8 {
		t.Errorf("bank defaulting failed: %d/%d", layout[0].Banks, layout[1].Banks)
	}
	if layout[0].Name != "near" || layout[1].Name != "m1" {
		t.Errorf("name defaulting failed: %q/%q", layout[0].Name, layout[1].Name)
	}
	if layout[0].RegionPages != 256 || layout[1].RegionPages != 256 {
		t.Errorf("region defaulting failed: %d/%d", layout[0].RegionPages, layout[1].RegionPages)
	}
	for page, want := range map[int]int{0: 0, 511: 0, 512: 1, 1023: 1} {
		if got := ModuleFor(layout, page); got != want {
			t.Errorf("ModuleFor(%d) = %d, want %d", page, got, want)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	// Oversubscription.
	s := &Spec{Modules: []Module{{Pages: 2048}}}
	if _, err := s.Resolve(1024, 256); err == nil {
		t.Error("oversubscribed spec resolved")
	}
	// Uneven split.
	s = &Spec{Modules: []Module{{}, {}, {}}}
	if _, err := s.Resolve(1<<10, 256); err == nil {
		t.Error("uneven auto split resolved")
	}
	// Pages not a multiple of banks.
	s = &Spec{Modules: []Module{{Pages: 24, Banks: 16}, {Pages: 1000}}}
	if _, err := s.Resolve(1024, 256); err == nil {
		t.Error("pages not a bank multiple resolved")
	}
	// Under-subscription with no auto module.
	s = &Spec{Modules: []Module{{Pages: 512}}}
	if _, err := s.Resolve(1024, 256); err == nil {
		t.Error("undersubscribed explicit spec resolved")
	}
	// Explicit modules that each fit but together exceed memory.
	s = &Spec{Modules: []Module{{Pages: 768}, {Pages: 768}, {}}}
	if _, err := s.Resolve(1024, 256); err == nil {
		t.Error("jointly oversubscribed spec resolved")
	}
	// No memory to lay out.
	if _, err := Default().Resolve(0, 256); err == nil {
		t.Error("zero-page memory resolved")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Demo2()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip diverged:\n  %+v\n  %+v", orig, back)
	}
	if orig.Canon() != back.Canon() {
		t.Errorf("canon diverged over round trip")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"modules":[{"bankz":8}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	for _, body := range []string{`{"modules":[{}]}{"modules":[{}]}`, `{"modules":[{}]} garbage`, `{"modules":[{}]} }`} {
		if _, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("trailing data accepted: %s", body)
		}
	}
	if _, err := ParseSpec([]byte("{\"modules\":[{}]}\n")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
	}
}

func TestCanonStable(t *testing.T) {
	a := &Spec{Modules: []Module{{Name: "x", Banks: 8, LinkCycles: 100}}}
	b, err := ParseSpec([]byte(`{"modules":[{"link_cycles":100,"banks":8,"name":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Canon() != b.Canon() {
		t.Errorf("field order changed canon: %q vs %q", a.Canon(), b.Canon())
	}
	if a.Canon() == Default().Canon() {
		t.Error("non-default spec canonicalized to default")
	}
}
