package wd

import (
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/thermal"
)

func newDev(t *testing.T, zero bool) *pcm.Device {
	t.Helper()
	d, err := pcm.NewDevice(pcm.Config{Pages: 16 * 4, FillSeed: 3, ZeroFill: zero})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var denseRates = thermal.RatesFor(2, 2, 20)

// writeAndDisturb performs a device write and runs the engine on it.
func writeAndDisturb(e *Engine, dev *pcm.Device, a pcm.LineAddr, data pcm.Line) Outcome {
	old := dev.Peek(a)
	res := dev.Write(a, data, pcm.NormalWrite)
	return e.OnWrite(dev, a, old, data, res.Reset, res.Set)
}

func TestNoRatesNoErrors(t *testing.T) {
	dev := newDev(t, false)
	e := New(thermal.Rates{}, rng.New(1))
	// Page in the middle so both neighbours exist.
	a := pcm.LineOf(32, 5)
	var data pcm.Line // all zero over random background: many RESETs
	out := writeAndDisturb(e, dev, a, data)
	if out.WordLineErrors != 0 || out.AboveCount != 0 || out.BelowCount != 0 {
		t.Fatalf("WD-free rates produced errors: %+v", out)
	}
}

func TestSetOnlyWriteDisturbsNothing(t *testing.T) {
	dev := newDev(t, true) // all amorphous
	e := New(denseRates, rng.New(2))
	var ones pcm.Line
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	a := pcm.LineOf(32, 0)
	out := writeAndDisturb(e, dev, a, ones) // pure SET write
	if out.WordLineErrors != 0 || out.AboveCount != 0 || out.BelowCount != 0 {
		t.Fatalf("SET-only write disturbed cells: %+v", out)
	}
	if out.FinalReset.Any() {
		t.Fatal("SET-only write must have an empty aggressor map")
	}
}

func TestBitLineFlipsRate(t *testing.T) {
	// Write a full-RESET line over an all-ones line; neighbours all zero:
	// every one of the 512 neighbour cells is vulnerable, each flips with
	// p=11.5%. Repeat and check the empirical rate.
	var totalVuln, totalFlips int
	e := New(thermal.Rates{BitLine: denseRates.BitLine}, rng.New(3))
	for trial := 0; trial < 60; trial++ {
		dev := newDev(t, true)
		a := pcm.LineOf(32, 1)
		var ones pcm.Line
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		dev.Write(a, ones, pcm.NormalWrite) // prime: all crystalline
		out := writeAndDisturb(e, dev, a, pcm.Line{})
		totalVuln += 2 * pcm.LineBits // both neighbours fully vulnerable
		totalFlips += out.AboveCount + out.BelowCount
	}
	rate := float64(totalFlips) / float64(totalVuln)
	if rate < 0.095 || rate > 0.135 {
		t.Fatalf("empirical bit-line flip rate %v, want ~0.115", rate)
	}
}

func TestBitLineFlipsPersistInArray(t *testing.T) {
	dev := newDev(t, true)
	e := New(thermal.Rates{BitLine: 1.0}, rng.New(4)) // deterministic flips
	a := pcm.LineOf(32, 2)
	above, below, okA, okB := pcm.DefaultGeometry.AdjacentLines(a, dev.RowsPerBank)
	if !okA || !okB {
		t.Fatal("test line must have both neighbours")
	}
	var ones pcm.Line
	ones[0] = 0xff
	dev.Write(a, ones, pcm.NormalWrite)
	out := writeAndDisturb(e, dev, a, pcm.Line{}) // 8 RESET pulses
	if out.AboveCount != 8 || out.BelowCount != 8 {
		t.Fatalf("flip counts = %d/%d, want 8/8", out.AboveCount, out.BelowCount)
	}
	if dev.Peek(above)[0] != 0xff || dev.Peek(below)[0] != 0xff {
		t.Fatal("flips must persist in the array until corrected")
	}
}

func TestBitLineOnlyVulnerableCellsFlip(t *testing.T) {
	dev := newDev(t, true)
	e := New(thermal.Rates{BitLine: 1.0}, rng.New(5))
	a := pcm.LineOf(32, 3)
	above, _, _, _ := pcm.DefaultGeometry.AdjacentLines(a, dev.RowsPerBank)
	// Neighbour holds 1s at positions 0..3 (crystalline: invulnerable).
	var n pcm.Line
	n[0] = 0xf
	dev.Write(above, n, pcm.NormalWrite)
	// Write RESET pulses at positions 0..7 of a.
	var ones pcm.Line
	ones[0] = 0xff
	dev.Write(a, ones, pcm.NormalWrite)
	out := writeAndDisturb(e, dev, a, pcm.Line{})
	if out.AboveCount != 4 {
		t.Fatalf("above flips = %d, want 4 (only amorphous cells)", out.AboveCount)
	}
	if out.Above.Bit(0) != 0 || out.Above.Bit(4) != 1 {
		t.Fatalf("flip mask = %v", out.Above.Bits())
	}
}

func TestRowBoundariesHaveOneNeighbour(t *testing.T) {
	dev := newDev(t, true)
	e := New(thermal.Rates{BitLine: 1.0}, rng.New(6))
	// Row 0 (pages 0..15): no above neighbour.
	a := pcm.LineOf(0, 0)
	var ones pcm.Line
	ones[0] = 0xff
	dev.Write(a, ones, pcm.NormalWrite)
	out := writeAndDisturb(e, dev, a, pcm.Line{})
	if out.AboveCount != 0 {
		t.Fatal("row 0 must have no above flips")
	}
	if out.BelowCount != 8 {
		t.Fatalf("below flips = %d, want 8", out.BelowCount)
	}
}

func TestInLineRewriteLoopCounts(t *testing.T) {
	// With word-line rate 1.0 and a run of idle zeros next to a RESET, the
	// rewrite loop must walk the whole run: flip, rewrite, flip next...
	dev := newDev(t, true)
	e := New(thermal.Rates{WordLine: 1.0}, rng.New(7))
	a := pcm.LineOf(32, 4)
	var prime pcm.Line
	prime[0] = 1 << 10 // one crystalline cell at bit 10
	dev.Write(a, prime, pcm.NormalWrite)
	out := writeAndDisturb(e, dev, a, pcm.Line{}) // RESET bit 10
	// Bits 9 and 11 flip and are rewritten; then 8 and 12; ... the cascade
	// covers the rest of segment 0 (63 other cells). Once it reaches the
	// segment edges, those rewrite pulses also disturb the edge cells of
	// slots 3 and 5 (2 more manifested word-line errors).
	if e.Stats.InLineErrors != 63 {
		t.Fatalf("cascade flipped %d in-line cells, want 63", e.Stats.InLineErrors)
	}
	if out.WordLineErrors != 65 {
		t.Fatalf("manifested word-line errors = %d, want 63 in-line + 2 edge", out.WordLineErrors)
	}
	if out.RewritePulses != 63 {
		t.Fatalf("rewrite pulses = %d", out.RewritePulses)
	}
	// The final image must still be correct (all zero).
	if dev.Peek(a) != (pcm.Line{}) {
		t.Fatal("verify-rewrite must leave the line correct")
	}
}

func TestInLineLoopTerminatesAtModeratedRate(t *testing.T) {
	dev := newDev(t, false)
	e := New(denseRates, rng.New(8))
	for i := 0; i < 200; i++ {
		a := pcm.LineOf(pcm.PageAddr(16+i%32), i%64)
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i) * 0x9e3779b97f4a7c15 >> (uint(w) % 8)
		}
		writeAndDisturb(e, dev, a, data)
	}
	// Statistical sanity: with p≈10%, manifested word-line errors should be
	// modest — far below one per aggressor — and the engine must terminate
	// (reaching here proves it).
	if e.Stats.InLineErrors == 0 && e.Stats.EdgeErrors == 0 {
		t.Log("no word-line errors manifested in 200 writes (possible but unusual)")
	}
	perWrite := float64(e.Stats.InLineErrors) / float64(e.Stats.WritesObserved)
	if perWrite > 20 {
		t.Fatalf("in-line errors per write = %v, runaway cascade", perWrite)
	}
}

func TestEdgeErrorsCounted(t *testing.T) {
	dev := newDev(t, true)
	e := New(thermal.Rates{WordLine: 1.0}, rng.New(9))
	a := pcm.LineOf(32, 5) // slots 4 and 6 exist
	// Prime line with crystalline cells at every segment edge so RESETs
	// fire there.
	var prime pcm.Line
	for seg := 0; seg < 8; seg++ {
		prime.SetBit(seg*64, 1)
		prime.SetBit(seg*64+63, 1)
	}
	dev.Write(a, prime, pcm.NormalWrite)
	out := writeAndDisturb(e, dev, a, pcm.Line{})
	// 8 left edges threaten slot 4's right edge cells (all amorphous) and 8
	// right edges threaten slot 6's left edge cells; rate 1.0 flips all 16.
	// In-line victims also cascade; edge errors are at least 16 of total.
	if e.Stats.EdgeErrors != 16 {
		t.Fatalf("edge errors = %d, want 16", e.Stats.EdgeErrors)
	}
	if out.WordLineErrors < 16 {
		t.Fatalf("word-line errors = %d, want >= 16", out.WordLineErrors)
	}
}

func TestSlotBoundariesNoEdgeNeighbour(t *testing.T) {
	dev := newDev(t, true)
	e := New(thermal.Rates{WordLine: 1.0}, rng.New(10))
	a := pcm.LineOf(32, 0) // slot 0: no left neighbour
	// Prime everything crystalline so the single RESET at bit 0 cannot
	// cascade (idle crystalline cells are invulnerable).
	var prime pcm.Line
	for i := range prime {
		prime[i] = ^uint64(0)
	}
	dev.Write(a, prime, pcm.NormalWrite)
	target := prime
	target.SetBit(0, 0) // exactly one RESET, at segment 0's left edge
	before := e.Stats.EdgeErrors
	writeAndDisturb(e, dev, a, target)
	if e.Stats.EdgeErrors != before {
		t.Fatal("slot 0 left edge must not disturb a non-existent neighbour")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		dev, _ := pcm.NewDevice(pcm.Config{Pages: 64, FillSeed: 3})
		e := New(denseRates, rng.New(42))
		for i := 0; i < 100; i++ {
			a := pcm.LineOf(pcm.PageAddr(16+i%32), i%64)
			var data pcm.Line
			data[i%8] = uint64(i) * 0xdeadbeef
			old := dev.Peek(a)
			res := dev.Write(a, data, pcm.NormalWrite)
			e.OnWrite(dev, a, old, data, res.Reset, res.Set)
		}
		return e.Stats
	}
	if run() != run() {
		t.Fatal("engine must be deterministic under a fixed seed")
	}
}

func TestFig4ShapeAtDefaults(t *testing.T) {
	// Smoke-check the Figure 4 shape: with realistic data, bit-line errors
	// per adjacent line are on the order of a couple per write, word-line
	// errors well below one.
	dev := newDev(t, false)
	e := New(denseRates, rng.New(11))
	rnd := rng.New(99)
	const writes = 2000
	for i := 0; i < writes; i++ {
		a := pcm.LineOf(pcm.PageAddr(16+rnd.Intn(32)), rnd.Intn(64))
		old := dev.Peek(a)
		// Realistic write: mutate a fraction of the words.
		data := old
		for w := range data {
			if rnd.Bernoulli(0.5) {
				data[w] = rnd.Uint64()
			}
		}
		res := dev.Write(a, data, pcm.NormalWrite)
		e.OnWrite(dev, a, old, data, res.Reset, res.Set)
	}
	wlPerWrite := float64(e.Stats.InLineErrors+e.Stats.EdgeErrors) / writes
	blPerNeighbour := float64(e.Stats.BitLineFlips) / (2 * writes)
	if wlPerWrite > 3 {
		t.Errorf("word-line errors per write = %v, want < 3 (paper: ~0.4)", wlPerWrite)
	}
	if blPerNeighbour < 0.5 || blPerNeighbour > 15 {
		t.Errorf("bit-line errors per neighbour = %v, want O(1)-O(10) (paper: ~2)", blPerNeighbour)
	}
	if wlPerWrite >= blPerNeighbour {
		t.Errorf("word-line (%v) must be rarer than bit-line (%v)", wlPerWrite, blPerNeighbour)
	}
}
