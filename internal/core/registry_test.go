package core

import (
	"sort"
	"testing"
)

func TestByNameResolvesBuiltins(t *testing.T) {
	cases := []struct{ query, want string }{
		{"din", "DIN"},
		{"DIN", "DIN"}, // case-insensitive
		{"wdfree", "WD-free"},
		{"wd-free", "WD-free"}, // alias
		{"prototype", "WD-free"},
		{"vnc", "baseline"},
		{"lazyc", "LazyC(ECP-6)"},
		{"lazyc+preread", "LazyC+PreRead"},
		{"2:3", "(2:3)-Alloc"},
		{"all", "LazyC+PreRead+(2:3)"},
		{"lazyc+preread+2:3", "LazyC+PreRead+(2:3)"},
		{"wc+lazyc", "WC+LazyC"},
	}
	for _, c := range cases {
		s, err := ByName(c.query, 0)
		if err != nil {
			t.Errorf("ByName(%q): %v", c.query, err)
			continue
		}
		if s.Name != c.want {
			t.Errorf("ByName(%q).Name = %q, want %q", c.query, s.Name, c.want)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("ByName(%q): %v", c.query, err)
		}
	}
}

func TestByNameECPDefaulting(t *testing.T) {
	if s, _ := ByName("lazyc", 0); s.ECPEntries != DefaultECPEntries {
		t.Errorf("ecp<=0 gave ECP-%d, want the default %d", s.ECPEntries, DefaultECPEntries)
	}
	if s, _ := ByName("lazyc", 8); s.ECPEntries != 8 {
		t.Errorf("ecp=8 gave ECP-%d", s.ECPEntries)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-scheme", 0); err == nil {
		t.Fatal("unknown scheme resolved")
	}
}

func TestNamesSortedAndCanonical(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("Names() lists %q twice", n)
		}
		seen[n] = true
		if _, err := ByName(n, 0); err != nil {
			t.Errorf("canonical name %q does not resolve: %v", n, err)
		}
	}
	for _, want := range []string{"baseline", "din", "lazyc+preread", "wc"} {
		if !seen[want] {
			t.Errorf("built-in %q missing from Names() = %v", want, names)
		}
	}
	// Aliases resolve but are not listed.
	if seen["vnc"] || seen["prototype"] {
		t.Errorf("aliases leaked into Names() = %v", names)
	}
}

func TestAliasesOf(t *testing.T) {
	got := AliasesOf("wdfree")
	want := []string{"wd-free", "prototype"}
	if len(got) != len(want) {
		t.Fatalf("AliasesOf(wdfree) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AliasesOf(wdfree) = %v, want %v", got, want)
		}
	}
	if AliasesOf("din") != nil {
		t.Errorf("AliasesOf(din) = %v, want none", AliasesOf("din"))
	}
	if AliasesOf("nope") != nil {
		t.Errorf("AliasesOf(nope) = %v for unknown name", AliasesOf("nope"))
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, aliases []string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q, %v) did not panic", name, aliases)
			}
		}()
		Register(name, aliases, func(int) Scheme { return Baseline() })
	}
	mustPanic("din", nil)               // duplicate canonical name
	mustPanic("BASELINE", nil)          // case-insensitive collision
	mustPanic("vnc", nil)               // name colliding with an alias
	mustPanic("fresh", []string{"wc"})  // alias colliding with a name
	mustPanic("fresh", []string{"vnc"}) // alias colliding with an alias
	mustPanic("", nil)                  // empty name
	// A failed Register must not leave partial state behind.
	if _, err := ByName("fresh", 0); err == nil {
		t.Error("failed registration left a resolvable name")
	}
}

// The registered scheme must resolve by name and alias and run end-to-end.
func TestRegisteredScheme(t *testing.T) {
	for _, name := range []string{"imdb", "barrier", "IMDB"} {
		s, err := ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name != "IMDB" || s.BarrierKey() != "imdb:8" || !s.Barrier {
			t.Fatalf("ByName(%q) = %+v", name, s)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, n := range Names() {
		if n == "imdb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("imdb missing from Names() = %v", Names())
	}
}
