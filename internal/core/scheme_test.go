package core

import (
	"math"
	"strings"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/geometry"
	"sdpcm/internal/mc"
)

func TestRosterValidates(t *testing.T) {
	for _, s := range Figure11Roster() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, s := range []Scheme{WDFree(), PreReadOnly(), WC(), WCLazyC(6)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateCatchesBadSchemes(t *testing.T) {
	bad := []Scheme{
		{}, // no name
		{Name: "x", Layout: geometry.Layout{WordLinePitchF: 1, BitLinePitchF: 2}, Tag: alloc.Tag11},
		{Name: "x", Layout: geometry.SuperDense, Tag: alloc.Tag{N: 5, M: 2}},
		{Name: "x", Layout: geometry.SuperDense, Tag: alloc.Tag11, ECPEntries: -1},
		// LazyCorrection without bit-line WD is a configuration error.
		{Name: "x", Layout: geometry.DINEnhanced, Tag: alloc.Tag11, LazyCorrection: true},
		// The barrier and LazyCorrection are alternative correction paths.
		{Name: "x", Layout: geometry.SuperDense, Tag: alloc.Tag11, LazyCorrection: true, Barrier: true},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scheme %d accepted", i)
		}
	}
}

// TestValidateBoundsLifetime: a hard-error lifetime is a fraction of the
// DIMM's life, so only [0, 1] names an age.
func TestValidateBoundsLifetime(t *testing.T) {
	for _, l := range []float64{0, 0.6, 1} {
		s := LazyC(6)
		s.HardErrorLifetime = l
		if err := s.Validate(); err != nil {
			t.Errorf("lifetime %g: %v", l, err)
		}
	}
	for _, l := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		s := LazyC(6)
		s.HardErrorLifetime = l
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "lifetime") {
			t.Errorf("lifetime %g: Validate = %v, want a lifetime error", l, err)
		}
	}
}

// TestValidateRefusesBarrierWithoutVnC: without bit-line WD the controller
// verifies no neighbour, so the barrier would never absorb a repair and the
// scheme would run as its layout alone while its key claimed the barrier.
func TestValidateRefusesBarrierWithoutVnC(t *testing.T) {
	for _, l := range []geometry.Layout{geometry.DINEnhanced, geometry.Prototype} {
		s := Scheme{Name: "x", Layout: l, Tag: alloc.Tag11, Barrier: true}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "barrier") {
			t.Errorf("barrier on layout %+v: Validate = %v, want a barrier error", l, err)
		}
	}
	if err := IMDB(6).Validate(); err != nil {
		t.Errorf("IMDB(6): %v", err)
	}
}

func TestSchemeRates(t *testing.T) {
	if r := Baseline().Rates(); r.BitLine == 0 || r.WordLine == 0 {
		t.Error("4F² must disturb on both axes")
	}
	if r := DIN().Rates(); r.BitLine != 0 || r.WordLine == 0 {
		t.Error("8F² must disturb along word-lines only")
	}
	if r := WDFree().Rates(); r.BitLine != 0 || r.WordLine != 0 {
		t.Error("12F² must be disturbance-free")
	}
}

func TestNeedsVnC(t *testing.T) {
	if !Baseline().NeedsVnC() {
		t.Error("baseline needs VnC")
	}
	if DIN().NeedsVnC() || WDFree().NeedsVnC() {
		t.Error("WD-free bit-line layouts must not need VnC")
	}
}

func TestMCConfigTranslation(t *testing.T) {
	s := AllThree(6, alloc.Tag23)
	cfg := s.MCConfig(16)
	if !cfg.VerifyNeighbors || cfg.Correction != mc.LazyECP || !cfg.PreRead || cfg.WriteCancel {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.ECPEntries != 6 || cfg.WriteQueueCap != 16 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Encoding != mc.DIN {
		t.Error("all schemes keep DIN encoding on (§4.1)")
	}
	din := DIN().MCConfig(0)
	if din.VerifyNeighbors {
		t.Error("DIN scheme must not verify neighbours")
	}
	if c := IMDB(6).MCConfig(0); c.Correction != mc.Barrier || !c.VerifyNeighbors {
		t.Errorf("IMDB config = %+v", c)
	}
	s.HardErrorLifetime = 0.6
	if c := s.MCConfig(0); c.HardErrorLifetime != 0.6 {
		t.Errorf("lifetime 0.6 reached the controller as %g", c.HardErrorLifetime)
	}
}

func TestCapacityFraction(t *testing.T) {
	if got := Baseline().CapacityFraction(); got != 1.0 {
		t.Errorf("baseline capacity = %v", got)
	}
	if got := DIN().CapacityFraction(); got != 0.5 {
		t.Errorf("DIN capacity = %v (8F² halves density)", got)
	}
	if got := NMAlloc(alloc.Tag12).CapacityFraction(); got != 0.5 {
		t.Errorf("(1:2) capacity = %v", got)
	}
	// LazyC+(2:3) still beats DIN on capacity: 2/3 > 1/2 (§6.3's point).
	if LazyCNM(6, alloc.Tag23).CapacityFraction() <= DIN().CapacityFraction() {
		t.Error("(2:3) super dense must out-capacity DIN")
	}
}

func TestSchemeNames(t *testing.T) {
	if LazyC(6).Name != "LazyC(ECP-6)" {
		t.Errorf("name = %q", LazyC(6).Name)
	}
	if NMAlloc(alloc.Tag12).Name != "(1:2)-Alloc" {
		t.Errorf("name = %q", NMAlloc(alloc.Tag12).Name)
	}
	if AllThree(6, alloc.Tag23).Name != "LazyC+PreRead+(2:3)" {
		t.Errorf("name = %q", AllThree(6, alloc.Tag23).Name)
	}
}
