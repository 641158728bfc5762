package wd

import (
	"math"
	"testing"

	"sdpcm/internal/din"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/thermal"
)

// oracleOnWrite is OnWrite written mask by mask, one Bernoulli trial per
// set bit in ascending order: the definition the word-wise kernel must
// match outcome for outcome, counter for counter and draw for draw.
func oracleOnWrite(e *Engine, dev *pcm.Device, a pcm.LineAddr, old, new pcm.Line, reset, set pcm.Mask) Outcome {
	e.Stats.WritesObserved++
	out := Outcome{}

	pulsed := reset.Or(set)
	agg := reset
	finalReset := reset
	for agg.Any() {
		vuln := din.Vulnerable(agg, old, new).AndNot(pulsed)
		flips := oracleSample(e.rnd, vuln, e.Rates.WordLine)
		if !flips.Any() {
			break
		}
		n := flips.PopCount()
		out.WordLineErrors += n
		out.RewritePulses += n
		e.Stats.InLineErrors += uint64(n)
		e.Stats.RewritePulses += uint64(n)
		pulsed = pulsed.Or(flips)
		finalReset = finalReset.Or(flips)
		agg = flips
	}
	out.FinalReset = finalReset

	if e.Rates.WordLine > 0 {
		edges := din.Edges(finalReset)
		slot := a.Slot()
		if slot > 0 {
			out.WordLineErrors += oracleEdgeFlips(e, dev, a-1, edges.LeftAggressor, din.SegmentBits-1)
		}
		if slot < pcm.LinesPerPage-1 {
			out.WordLineErrors += oracleEdgeFlips(e, dev, a+1, edges.RightAggressor, 0)
		}
	}

	if e.Rates.BitLine > 0 {
		above, below, okA, okB := dev.Geometry().AdjacentLines(a, dev.RowsPerBank)
		if okA {
			out.Above, out.AboveCount = oracleBitLineFlips(e, dev, above, finalReset)
		}
		if okB {
			out.Below, out.BelowCount = oracleBitLineFlips(e, dev, below, finalReset)
		}
	}
	e.Stats.MaxWordLinePerWrite = max(e.Stats.MaxWordLinePerWrite, out.WordLineErrors)
	e.Stats.MaxBitLinePerLine = max(e.Stats.MaxBitLinePerLine, out.AboveCount, out.BelowCount)
	return out
}

func oracleSample(r *rng.Rand, mask pcm.Mask, p float64) pcm.Mask {
	var out pcm.Mask
	if p <= 0 {
		return out
	}
	for b := 0; b < pcm.LineBits; b++ {
		if mask.Bit(b) == 1 && r.Bernoulli(p) {
			out.SetBit(b)
		}
	}
	return out
}

func oracleEdgeFlips(e *Engine, dev *pcm.Device, neighbour pcm.LineAddr, aggressor [pcm.LineBits / din.SegmentBits]bool, offsetInSeg int) int {
	content := dev.Peek(neighbour)
	n := 0
	for seg, agg := range aggressor {
		if agg && content.Bit(seg*din.SegmentBits+offsetInSeg) == 0 && e.rnd.Bernoulli(e.Rates.WordLine) {
			n++
		}
	}
	e.Stats.EdgeErrors += uint64(n)
	e.Stats.EdgeHealPulses += uint64(n)
	return n
}

func oracleBitLineFlips(e *Engine, dev *pcm.Device, neighbour pcm.LineAddr, aggressors pcm.Mask) (pcm.Mask, int) {
	content := dev.Peek(neighbour)
	flips := oracleSample(e.rnd, aggressors.AndNot(pcm.Mask(content)), e.Rates.BitLine)
	n := flips.PopCount()
	if n > 0 {
		dev.Disturb(neighbour, flips)
		e.Stats.BitLineFlips += uint64(n)
		e.hm.RecordInjected(neighbour, n)
		if e.tr != nil {
			e.tr.Emit(e.Now, metrics.EvWDInjected, uint64(neighbour), uint64(n), 0)
		}
	}
	return flips, n
}

// TestOnWriteMatchesOracle drives OnWrite and oracleOnWrite with the same
// random writes, each on its own device and engine from the same seeds, and
// compares every Outcome, then the engine counters, the RNG state, the
// device counters and every line's content and residency.
func TestOnWriteMatchesOracle(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		rates thermal.Rates
		zero  bool
	}{
		{"table1", denseRates, false},
		{"table1-amorphous", denseRates, true},
		{"denser", thermal.Rates{WordLine: 0.3, BitLine: 0.5}, false},
		{"zero", thermal.Rates{}, false},
		{"one", thermal.Rates{WordLine: 1, BitLine: 1}, false},
		{"past-one", thermal.Rates{WordLine: 1.5, BitLine: 2}, true},
		{"wordline-only", thermal.Rates{WordLine: 0.3}, false},
		{"negative", thermal.Rates{WordLine: -1, BitLine: 0.2}, false},
		{"nan", thermal.Rates{WordLine: nan, BitLine: nan}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newDev := func() *pcm.Device {
				d, err := pcm.NewDevice(pcm.Config{Pages: 64, FillSeed: 3, ZeroFill: tc.zero})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			gotDev, wantDev := newDev(), newDev()
			got, want := New(tc.rates, rng.New(42)), New(tc.rates, rng.New(42))
			r := rng.New(17)
			for i := 0; i < 3000; i++ {
				// Every slot and row, edges included; half the words
				// keep their old content, some go all-0 or all-1.
				a := pcm.LineAddr(r.Intn(gotDev.Lines()))
				old := gotDev.Peek(a)
				data := old
				for w := range data {
					switch r.Intn(6) {
					case 0:
						data[w] = 0
					case 1:
						data[w] = ^uint64(0)
					case 2, 3:
						data[w] = r.Uint64()
					}
				}
				res := gotDev.Write(a, data, pcm.NormalWrite)
				wantDev.Write(a, data, pcm.NormalWrite)
				g := got.OnWrite(gotDev, a, old, data, res.Reset, res.Set)
				w := oracleOnWrite(want, wantDev, a, old, data, res.Reset, res.Set)
				if g != w {
					t.Fatalf("write %d to line %d: outcome\n%+v\noracle\n%+v", i, a, g, w)
				}
			}
			if got.Stats != want.Stats {
				t.Fatalf("stats %+v, oracle %+v", got.Stats, want.Stats)
			}
			if got.rnd.State() != want.rnd.State() {
				t.Fatal("RNG state diverged from the oracle's")
			}
			if gotDev.Stats() != wantDev.Stats() {
				t.Fatalf("device stats %+v, oracle %+v", gotDev.Stats(), wantDev.Stats())
			}
			for a := pcm.LineAddr(0); a < pcm.LineAddr(gotDev.Lines()); a++ {
				if gotDev.Peek(a) != wantDev.Peek(a) || gotDev.Resident(a) != wantDev.Resident(a) {
					t.Fatalf("line %d differs from the oracle's device", a)
				}
			}
		})
	}
}
