// Package core composes SD-PCM's mechanisms into the named schemes the
// paper evaluates (§5.3), plus the in-module disturbance barrier. A Scheme
// selects the cell-array layout (which fixes the disturbance rates), the VnC
// mitigation stack (LazyCorrection or the barrier, PreRead, write
// cancellation, ECP provisioning) and the page-allocator tag ((n:m)-Alloc).
// Schemes translate directly into memory-controller configurations and
// carry the capacity consequences of their layout.
package core

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/geometry"
	"sdpcm/internal/mc"
	"sdpcm/internal/thermal"
)

// Scheme is one evaluated design point.
type Scheme struct {
	Name string
	// Layout is the cell-array geometry: SuperDense (4F²) for every SD-PCM
	// variant, DINEnhanced (8F²) for the DIN comparator, Prototype (12F²)
	// for the WD-free reference.
	Layout geometry.Layout
	// LazyCorrection, PreRead, WriteCancel enable §4.2, §4.3 and §6.8.
	LazyCorrection bool
	PreRead        bool
	WriteCancel    bool
	// Barrier buffers detected WD errors in the in-module disturbance
	// barrier (mc.Barrier) instead of correcting them at once; it excludes
	// LazyCorrection.
	Barrier bool
	// ECPEntries is N of ECP-N (0 disables; the paper defaults to 6).
	ECPEntries int
	// Tag is the (n:m) page allocator the workload's memory comes from.
	Tag alloc.Tag
	// HardErrorLifetime ages the DIMM (§6.4 Fig. 14): the fraction of its
	// lifetime in [0, 1] whose hard errors take ECP entries; 0 is pristine.
	HardErrorLifetime float64
	// NoVerifyCharge / NoCorrectCharge make the corresponding VnC phase
	// free in time (device effects still happen). Instrumentation knobs for
	// the Figure 5 overhead decomposition, never part of a real design.
	NoVerifyCharge, NoCorrectCharge bool
	// Encoding selects the word-line codec: "din" (default, §4.1),
	// "fnw" (Flip-N-Write [7], for the encoding ablation) or "none"
	// (raw storage, exposes unmitigated word-line WD).
	Encoding string
}

// BarrierKey names the barrier in result-cache keys and checkpoint
// identities: "imdb:<per-bank capacity>" when it is on, "" otherwise.
func (s Scheme) BarrierKey() string {
	if !s.Barrier {
		return ""
	}
	return fmt.Sprintf("imdb:%d", mc.BarrierCapacity)
}

// Rates returns the layout's disturbance probabilities at the paper's
// technology node.
func (s Scheme) Rates() thermal.Rates {
	return thermal.RatesFor(s.Layout.WordLinePitchF, s.Layout.BitLinePitchF, geometry.FeatureSizeNM)
}

// NeedsVnC reports whether the layout exposes bit-line WD (4F²), requiring
// the verify-and-correct machinery.
func (s Scheme) NeedsVnC() bool { return s.Rates().BitLine > 0 }

// MCConfig translates the scheme into a memory-controller configuration.
// writeQueueCap <= 0 selects the Table 2 default (32).
func (s Scheme) MCConfig(writeQueueCap int) mc.Config {
	cfg := mc.Config{
		Rates:             s.Rates(),
		VerifyNeighbors:   s.NeedsVnC(),
		ECPEntries:        s.ECPEntries,
		PreRead:           s.PreRead,
		WriteCancel:       s.WriteCancel,
		WriteQueueCap:     writeQueueCap,
		NoVerifyCharge:    s.NoVerifyCharge,
		NoCorrectCharge:   s.NoCorrectCharge,
		HardErrorLifetime: s.HardErrorLifetime,
	}
	switch s.Encoding {
	case "", "din":
	case "fnw":
		cfg.Encoding = mc.FlipNWrite
	case "none":
		cfg.Encoding = mc.Raw
	default:
		panic(fmt.Sprintf("core: unknown encoding %q", s.Encoding))
	}
	switch {
	case s.LazyCorrection:
		cfg.Correction = mc.LazyECP
	case s.Barrier:
		cfg.Correction = mc.Barrier
	}
	return cfg
}

// Validate reports configuration errors.
func (s Scheme) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: scheme without a name")
	}
	if !s.Layout.Valid() {
		return fmt.Errorf("core: scheme %s has invalid layout", s.Name)
	}
	if !s.Tag.Valid() {
		return fmt.Errorf("core: scheme %s has invalid tag %v", s.Name, s.Tag)
	}
	if s.ECPEntries < 0 {
		return fmt.Errorf("core: scheme %s has negative ECP entries", s.Name)
	}
	if !(s.HardErrorLifetime >= 0 && s.HardErrorLifetime <= 1) {
		return fmt.Errorf("core: scheme %s has hard-error lifetime %g outside [0, 1]", s.Name, s.HardErrorLifetime)
	}
	if s.LazyCorrection && !s.NeedsVnC() {
		return fmt.Errorf("core: scheme %s enables LazyCorrection on a WD-free-bit-line layout", s.Name)
	}
	if s.Barrier && !s.NeedsVnC() {
		return fmt.Errorf("core: scheme %s enables the barrier on a WD-free-bit-line layout", s.Name)
	}
	if s.LazyCorrection && s.Barrier {
		return fmt.Errorf("core: scheme %s enables both LazyCorrection and the barrier", s.Name)
	}
	switch s.Encoding {
	case "", "din", "fnw", "none":
	default:
		return fmt.Errorf("core: scheme %s has unknown encoding %q", s.Name, s.Encoding)
	}
	return nil
}

// CapacityFraction returns the scheme's usable cell-array capacity relative
// to the ideal super dense array: layout density times the (n:m) allocator's
// strip usage. The §6 performance/capacity trade-off in one number.
func (s Scheme) CapacityFraction() float64 {
	return s.Layout.DensityRelativeTo(geometry.SuperDense) * s.Tag.CapacityFraction()
}

// The §5.3 scheme roster.

// DIN is the state-of-the-art comparator: DIN-encoded 8F² PCM, WD-free
// along bit-lines, no VnC needed.
func DIN() Scheme {
	return Scheme{Name: "DIN", Layout: geometry.DINEnhanced, Tag: alloc.Tag11}
}

// WDFree is the 12F² prototype layout with no disturbance at all (the no-op
// reference used to decompose VnC overhead, Fig. 5).
func WDFree() Scheme {
	return Scheme{Name: "WD-free", Layout: geometry.Prototype, Tag: alloc.Tag11}
}

// Baseline is basic VnC on super dense 4F² PCM.
func Baseline() Scheme {
	return Scheme{Name: "baseline", Layout: geometry.SuperDense, Tag: alloc.Tag11}
}

// LazyC is LazyCorrection (ECP-N) on top of baseline; the paper's default
// is 6 entries.
func LazyC(ecpEntries int) Scheme {
	return Scheme{
		Name:           fmt.Sprintf("LazyC(ECP-%d)", ecpEntries),
		Layout:         geometry.SuperDense,
		LazyCorrection: true,
		ECPEntries:     ecpEntries,
		Tag:            alloc.Tag11,
	}
}

// PreReadOnly is PreRead on top of baseline (§5.3's standalone PreRead).
func PreReadOnly() Scheme {
	return Scheme{Name: "PreRead", Layout: geometry.SuperDense, PreRead: true, Tag: alloc.Tag11}
}

// LazyCPreRead combines LazyCorrection and PreRead.
func LazyCPreRead(ecpEntries int) Scheme {
	s := LazyC(ecpEntries)
	s.Name = "LazyC+PreRead"
	s.PreRead = true
	return s
}

// NMAlloc is baseline VnC with an (n:m) page allocator.
func NMAlloc(tag alloc.Tag) Scheme {
	return Scheme{
		Name:   fmt.Sprintf("%v-Alloc", tag),
		Layout: geometry.SuperDense,
		Tag:    tag,
	}
}

// LazyCNM combines LazyCorrection with an (n:m) allocator.
func LazyCNM(ecpEntries int, tag alloc.Tag) Scheme {
	s := LazyC(ecpEntries)
	s.Name = fmt.Sprintf("LazyC+%v", tag)
	s.Tag = tag
	return s
}

// AllThree combines LazyCorrection, PreRead and (n:m)-Alloc (§6.3's best
// composite).
func AllThree(ecpEntries int, tag alloc.Tag) Scheme {
	s := LazyCNM(ecpEntries, tag)
	s.Name = fmt.Sprintf("LazyC+PreRead+%v", tag)
	s.PreRead = true
	return s
}

// WC is write cancellation on top of baseline VnC (§6.8).
func WC() Scheme {
	return Scheme{Name: "WC", Layout: geometry.SuperDense, WriteCancel: true, Tag: alloc.Tag11}
}

// WCLazyC combines write cancellation with LazyCorrection (§6.8).
func WCLazyC(ecpEntries int) Scheme {
	s := LazyC(ecpEntries)
	s.Name = "WC+LazyC"
	s.WriteCancel = true
	return s
}

// IMDB is basic VnC on super dense 4F² PCM with the in-module disturbance
// barrier buffering detected WD errors ("An In-Module Disturbance Barrier
// for Mitigating Write Disturbance in Phase-Change Memory").
func IMDB(ecpEntries int) Scheme {
	return Scheme{
		Name:       "IMDB",
		Layout:     geometry.SuperDense,
		Barrier:    true,
		ECPEntries: ecpEntries,
		Tag:        alloc.Tag11,
	}
}

// Figure11Roster returns the schemes of the paper's headline comparison in
// presentation order (all normalised to Baseline when reported).
func Figure11Roster() []Scheme {
	return []Scheme{
		DIN(),
		Baseline(),
		LazyC(ecpDefault),
		LazyCPreRead(ecpDefault),
		LazyCNM(ecpDefault, alloc.Tag23),
		AllThree(ecpDefault, alloc.Tag23),
		NMAlloc(alloc.Tag12),
	}
}

const ecpDefault = 6

// DefaultECPEntries is the paper's ECP provisioning.
const DefaultECPEntries = ecpDefault
