// Package topo declares memory topologies: N heterogeneous PCM modules —
// each with its own bank geometry, capacity, timing profile (including a
// CXL-style link latency), reliability scheme and WD rate overrides —
// behind an address-range router that maps physical pages to modules.
//
// The package is purely declarative: it parses, validates and canonicalizes
// specs, and resolves them against a memory size into a concrete page
// layout. The simulator (internal/sim) instantiates the described modules;
// the sweep layers (internal/runner, internal/serve) fold the canonical
// form into result-cache keys. topo sits below all of them and imports
// none of them — it may not even name the scheme registry (internal/core),
// so Validate takes the registry as a lookup function.
package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// DefaultBanks is the bank count of an unspecified module — the fixed
// 16-bank DIMM (2 ranks × 8 banks) every single-module run uses.
const DefaultBanks = 16

// SpecError reports a topology spec the package rejects. Every error
// ParseSpec, Validate and Resolve return is a *SpecError, so callers can
// tell a bad spec from any other failure with errors.As.
type SpecError struct{ err error }

func (e *SpecError) Error() string { return "topo: " + e.err.Error() }
func (e *SpecError) Unwrap() error { return e.err }

func invalid(format string, args ...any) error {
	return &SpecError{fmt.Errorf(format, args...)}
}

// Module describes one PCM module of a topology.
type Module struct {
	// Name labels the module in results and metrics ("" = "m<i>").
	Name string `json:"name,omitempty"`
	// Banks is the module's bank count (power of two; 0 = DefaultBanks).
	Banks int `json:"banks,omitempty"`
	// Pages is the module's capacity in 4KB pages. 0 means an equal share
	// of the simulated memory left over after explicitly-sized modules.
	Pages int `json:"pages,omitempty"`
	// Start is the first physical page the module serves. Leave every
	// Start zero for automatic contiguous layout in declaration order;
	// explicit starts must describe sorted, non-overlapping, gap-free
	// ranges beginning at page 0.
	Start int `json:"start,omitempty"`
	// RegionPages overrides the (n:m)-Alloc marking-region size for this
	// module (0 = the run's region size).
	RegionPages int `json:"region_pages,omitempty"`
	// Scheme names the module's reliability scheme in the registry
	// ("" inherits the run's scheme).
	Scheme string `json:"scheme,omitempty"`
	// ECPEntries provisions the module's ECP (0 = the scheme's default).
	ECPEntries int `json:"ecp_entries,omitempty"`
	// Timing overrides, in controller cycles (0 = device defaults).
	ReadCycles   int `json:"read_cycles,omitempty"`
	SetCycles    int `json:"set_cycles,omitempty"`
	ResetCycles  int `json:"reset_cycles,omitempty"`
	ParallelBits int `json:"parallel_bits,omitempty"`
	// LinkCycles is the one-way interconnect latency in front of the
	// module (0 = directly attached; CXL-attached modules pay it on every
	// request and response).
	LinkCycles int `json:"link_cycles,omitempty"`
	// WordLineRate / BitLineRate override the scheme layout's WD
	// probabilities (0 = the layout's thermal-model rates; a hotter or
	// denser far module can be modeled by raising them).
	WordLineRate float64 `json:"word_line_rate,omitempty"`
	BitLineRate  float64 `json:"bit_line_rate,omitempty"`
}

// Spec is a declarative memory topology: the ordered module list. The zero
// Spec is invalid; Default() is the single-module identity topology.
type Spec struct {
	Modules []Module `json:"modules"`
}

// Default returns the topology every run without one uses: a single
// all-default module — today's 16-bank DIMM holding all of memory.
func Default() *Spec {
	return &Spec{Modules: []Module{{}}}
}

// IsDefault reports whether the spec (nil included) describes the default
// single-module topology — the one every run without a spec uses.
func (s *Spec) IsDefault() bool {
	return s == nil || (len(s.Modules) == 1 && s.Modules[0] == Module{})
}

// Demo2 is the repository's two-module demo: a directly-attached "near"
// module under basic VnC and a CXL-attached "far" module under
// LazyCorrection with ECP-6 paying ~600 cycles of link latency each way.
func Demo2() *Spec {
	return &Spec{Modules: []Module{
		{Name: "near", Scheme: "vnc"},
		{Name: "far", Scheme: "lazyc", ECPEntries: 6, LinkCycles: 600},
	}}
}

// Validate checks the spec's internal consistency. schemeKnown, when
// non-nil, resolves module scheme names against the caller's registry
// (topo itself may not import it); nil skips scheme-name checking.
func (s *Spec) Validate(schemeKnown func(name string) bool) error {
	if s == nil || len(s.Modules) == 0 {
		return invalid("spec has no modules")
	}
	explicit := false
	for i, m := range s.Modules {
		if i > 0 && m.Start != 0 {
			explicit = true
		}
	}
	names := make(map[string]int, len(s.Modules))
	prevEnd, total := 0, 0
	for i, m := range s.Modules {
		// Names key per-module results (and experiment columns), so they must
		// be unique after the "m<i>" default is applied.
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		if prev, dup := names[name]; dup {
			return invalid("modules %d and %d share the name %q", prev, i, name)
		}
		names[name] = i
		banks := m.Banks
		if banks == 0 {
			banks = DefaultBanks
		}
		if banks < 1 || banks > 1024 || banks&(banks-1) != 0 {
			return invalid("module %d: banks %d not a power of two in [1,1024]", i, m.Banks)
		}
		if m.Pages < 0 || m.Start < 0 || m.RegionPages < 0 || m.ECPEntries < 0 ||
			m.ReadCycles < 0 || m.SetCycles < 0 || m.ResetCycles < 0 ||
			m.ParallelBits < 0 || m.LinkCycles < 0 {
			return invalid("module %d: negative field", i)
		}
		// Page counts sum into the layout, so their total (and with it every
		// module's end page) must fit an int.
		if m.Pages > math.MaxInt-total {
			return invalid("module %d: %d pages overflow the total page count", i, m.Pages)
		}
		total += m.Pages
		if m.WordLineRate < 0 || m.WordLineRate > 1 || m.BitLineRate < 0 || m.BitLineRate > 1 {
			return invalid("module %d: WD rate outside [0,1]", i)
		}
		if m.Scheme != "" && schemeKnown != nil && !schemeKnown(m.Scheme) {
			return invalid("module %d: unknown scheme %q", i, m.Scheme)
		}
		if explicit {
			if m.Pages == 0 {
				return invalid("module %d: explicit starts need explicit pages on every module", i)
			}
			if m.Start != prevEnd {
				if m.Start < prevEnd {
					return invalid("module %d: range starting at %d overlaps or is unsorted (previous end %d)",
						i, m.Start, prevEnd)
				}
				return invalid("module %d: range starts at %d, leaving a gap after %d",
					i, m.Start, prevEnd)
			}
			prevEnd = m.Start + m.Pages
		}
	}
	return nil
}

// Placement is one module resolved against a memory size: its concrete
// page range and geometry, auto-layout applied.
type Placement struct {
	Module
	// Index is the module's position in the spec.
	Index int
}

// Resolve lays the spec out over memPages pages of physical memory:
// explicitly-sized modules keep their size, the rest split the remainder
// equally, and ranges become contiguous in declaration order. regionPages
// is the run's default marking-region size, applied to modules without
// their own. The returned placements have Banks, Pages, Start, RegionPages
// and Name all concrete; they are contiguous from page 0 and cover exactly
// memPages.
func (s *Spec) Resolve(memPages, regionPages int) ([]Placement, error) {
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	if memPages <= 0 {
		return nil, invalid("%d simulated pages cannot hold a module", memPages)
	}
	// remaining stays in [0, memPages]: a module larger than what is left is
	// refused before it is subtracted, so no sum can wrap.
	remaining := memPages
	auto := 0
	for _, m := range s.Modules {
		if m.Pages == 0 {
			auto++
		} else if m.Pages > remaining {
			return nil, invalid("modules claim more than the %d simulated pages", memPages)
		} else {
			remaining -= m.Pages
		}
	}
	share := 0
	if auto > 0 {
		if remaining%auto != 0 {
			return nil, invalid("%d leftover pages do not split evenly across %d auto-sized modules",
				remaining, auto)
		}
		share = remaining / auto
	} else if remaining != 0 {
		return nil, invalid("modules cover %d of the %d simulated pages", memPages-remaining, memPages)
	}
	out := make([]Placement, len(s.Modules))
	start := 0
	for i, m := range s.Modules {
		p := Placement{Module: m, Index: i}
		if p.Banks == 0 {
			p.Banks = DefaultBanks
		}
		if p.Pages == 0 {
			p.Pages = share
		}
		if p.RegionPages == 0 {
			p.RegionPages = regionPages
		}
		if p.Name == "" {
			p.Name = fmt.Sprintf("m%d", i)
		}
		p.Start = start
		start += p.Pages
		if p.Pages <= 0 || p.Pages%p.Banks != 0 {
			return nil, invalid("module %d: %d pages not a positive multiple of %d banks",
				i, p.Pages, p.Banks)
		}
		out[i] = p
	}
	return out, nil
}

// ModuleFor routes a physical page to its module index in a resolved
// layout. The caller guarantees page is within the laid-out memory.
func ModuleFor(layout []Placement, page int) int {
	for i := len(layout) - 1; i > 0; i-- {
		if page >= layout[i].Start {
			return i
		}
	}
	return 0
}

// Canon renders the spec in a canonical single-line form, stable across
// JSON field ordering and whitespace — the topology component of
// sim.Config.Key. The default topology canonicalizes to "default".
func (s *Spec) Canon() string {
	if s.IsDefault() {
		return "default"
	}
	var b strings.Builder
	b.WriteString("modules=[")
	for i, m := range s.Modules {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "{name=%q banks=%d pages=%d start=%d region=%d scheme=%q ecp=%d rd=%d set=%d rst=%d par=%d link=%d wl=%g bl=%g}",
			m.Name, m.Banks, m.Pages, m.Start, m.RegionPages, m.Scheme, m.ECPEntries,
			m.ReadCycles, m.SetCycles, m.ResetCycles, m.ParallelBits, m.LinkCycles,
			m.WordLineRate, m.BitLineRate)
	}
	b.WriteString("]")
	return b.String()
}

// ParseSpec decodes a topology spec from JSON, rejecting unknown fields so
// a typo fails loudly instead of silently meaning "default".
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, invalid("parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, invalid("parse spec: trailing data after spec")
	}
	return &s, nil
}

// Load reads and parses a topology spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("topo: %s: %w", path, err)
	}
	return s, nil
}
