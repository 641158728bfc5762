package fnw

import (
	"math/bits"
	"testing"
	"testing/quick"

	"sdpcm/internal/pcm"
)

// newCodec returns a codec bound to a small zero-filled device, as the
// controller binds its codec to the device it writes.
func newCodec(t testing.TB) *Codec {
	t.Helper()
	dev, err := pcm.NewDevice(pcm.Config{Pages: 16, ZeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec()
	c.Bind(dev)
	return c
}

func TestRoundTrip(t *testing.T) {
	c := newCodec(t)
	if err := quick.Check(func(d, s [8]uint64) bool {
		data, stored := pcm.Line(d), pcm.Line(s)
		a := pcm.LineAddr(d[0] % 500)
		img := c.Encode(a, data, stored)
		return c.Decode(a, img) == data
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialRoundTrip(t *testing.T) {
	c := newCodec(t)
	var stored pcm.Line
	for i := 0; i < 40; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i)*0x9e3779b97f4a7c15 ^ uint64(w)<<i
		}
		stored = c.Encode(9, data, stored)
		if c.Decode(9, stored) != data {
			t.Fatalf("roundtrip failed at write %d", i)
		}
	}
}

func TestHalvesWorstCaseProgramming(t *testing.T) {
	// Property: the chosen codeword never programs more than half of any
	// group — Flip-N-Write's defining guarantee.
	c := newCodec(t)
	if err := quick.Check(func(d, s [8]uint64) bool {
		data, stored := pcm.Line(d), pcm.Line(s)
		img := c.Encode(2, data, stored)
		reset, set := pcm.DiffMasks(stored, img)
		changed := reset.Or(set)
		for g := 0; g < GroupsPerLine; g++ {
			w, sh := g*GroupBits/64, uint(g*GroupBits%64)
			n := bits.OnesCount16(uint16(changed[w] >> sh))
			if n > GroupBits/2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReducesProgrammedCells(t *testing.T) {
	// Writing the complement of the stored image must cost ~0 programmed
	// cells (every group flips).
	c := newCodec(t)
	var stored pcm.Line
	for w := range stored {
		stored[w] = 0xdeadbeefcafebabe
	}
	// Prime the codec state so aux starts at identity.
	img := c.Encode(1, stored, pcm.Line{})
	var comp pcm.Line
	for w := range comp {
		comp[w] = ^stored[w]
	}
	img2 := c.Encode(1, comp, img)
	reset, set := pcm.DiffMasks(img, img2)
	if got := reset.PopCount() + set.PopCount(); got != 0 {
		t.Fatalf("complement write programmed %d cells, want 0", got)
	}
	if c.Stats.GroupsFlipped == 0 {
		t.Fatal("some groups must have been stored inverted along the way")
	}
}

func TestNilCodecIdentity(t *testing.T) {
	var c *Codec
	var d pcm.Line
	d[0] = 42
	if c.Encode(1, d, pcm.Line{}) != d || c.Decode(1, d) != d {
		t.Fatal("nil codec must be identity")
	}
	if c.AuxBits(1) != 0 {
		t.Fatal("nil codec aux must be zero")
	}
}

func TestStats(t *testing.T) {
	c := newCodec(t)
	var stored pcm.Line
	var data pcm.Line
	for w := range data {
		data[w] = ^uint64(0) // all ones over all zeros: every group flips
	}
	c.Encode(3, data, stored)
	if c.Stats.GroupsFlipped != GroupsPerLine {
		t.Fatalf("GroupsFlipped = %d, want %d", c.Stats.GroupsFlipped, GroupsPerLine)
	}
	if c.Stats.BitsSaved != uint64(pcm.LineBits) {
		t.Fatalf("BitsSaved = %d, want %d", c.Stats.BitsSaved, pcm.LineBits)
	}
}
