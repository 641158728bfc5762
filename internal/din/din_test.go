package din

import (
	"encoding/binary"
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := newCodec(t)
	if err := quick.Check(func(d, s [8]uint64) bool {
		data, stored := pcm.Line(d), pcm.Line(s)
		a := pcm.LineAddr(d[0] % 1000)
		img := c.Encode(a, data, stored)
		return c.Decode(a, img) == data
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialWritesRoundTrip(t *testing.T) {
	// The stored image evolves across writes; decode must always track the
	// latest coding.
	c := newCodec(t)
	var stored pcm.Line
	for i := 0; i < 50; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i)*0x9e3779b97f4a7c15 + uint64(w)*12345
		}
		stored = c.Encode(7, data, stored)
		if c.Decode(7, stored) != data {
			t.Fatalf("roundtrip failed at write %d", i)
		}
	}
}

func TestNilCodecIsIdentity(t *testing.T) {
	var c *Codec
	var data, stored pcm.Line
	data[0] = 0xabcdef
	img := c.Encode(1, data, stored)
	if img != data {
		t.Fatal("nil codec must store data verbatim")
	}
	if c.Decode(1, img) != data {
		t.Fatal("nil codec decode must be identity")
	}
	if c.AuxBits(1) != 0 {
		t.Fatal("nil codec has no aux bits")
	}
}

func TestVulnerableDefinition(t *testing.T) {
	// Cell 5 fires RESET (1→0); cells 4 and 6 idle amorphous: both victims.
	var old, new pcm.Line
	old.SetBit(5, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(6) != 1 || v.Bit(4) != 1 {
		t.Fatalf("victims = %v, want {4,6}", v.Bits())
	}
	if v.PopCount() != 2 {
		t.Fatalf("victims = %v", v.Bits())
	}
}

func TestVulnerableExcludesNonIdleAndCrystalline(t *testing.T) {
	var old, new pcm.Line
	// Cell 5 RESET. Cell 6: idle crystalline (1→1): not a victim.
	old.SetBit(5, 1)
	old.SetBit(6, 1)
	new.SetBit(6, 1)
	// Cell 4: programmed this write (0→1): not idle, not a victim.
	new.SetBit(4, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Any() {
		t.Fatalf("victims = %v, want none", v.Bits())
	}
}

func TestVulnerableIsSingleStep(t *testing.T) {
	// A run of idle zeros next to one RESET: only the immediately adjacent
	// cell is vulnerable in one step (the rewrite loop iterates).
	var old, new pcm.Line
	old.SetBit(10, 1) // RESET at 10; 11,12,13... idle amorphous
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(11) != 1 || v.Bit(12) != 0 {
		t.Fatalf("victims = %v, want {9,11}", v.Bits())
	}
}

func TestVulnerableRespectsChipSegments(t *testing.T) {
	// Cell 63 (end of chip 0) RESET must not victimise cell 64 (start of
	// chip 1) — they are on different chips.
	var old, new pcm.Line
	old.SetBit(63, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(64) != 0 {
		t.Fatal("vulnerability must not cross chip segment boundaries")
	}
	if v.Bit(62) != 1 {
		t.Fatal("in-segment victim at 62 expected")
	}
}

func TestVulnerableExcludesAggressors(t *testing.T) {
	// A cell that itself fires a pulse this write is not idle even when the
	// aggressor mask includes it.
	var old, new pcm.Line
	old.SetBit(5, 1)
	old.SetBit(6, 1) // both RESET
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(5) != 0 && v.Bit(6) != 0 {
		// fine
	}
	if v.Bit(5) == 1 || v.Bit(6) == 1 {
		t.Fatalf("aggressor cells cannot be victims: %v", v.Bits())
	}
}

func TestEncodingReducesVulnerability(t *testing.T) {
	// Across random writes, the coded image must create fewer victims on
	// average than identity storage.
	c := newCodec(t)
	var codedVictims, plainVictims int
	seed := uint64(12345)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	count := func(old, new pcm.Line) int {
		reset, _ := pcm.DiffMasks(old, new)
		return Vulnerable(reset, old, new).PopCount()
	}
	var storedCoded, storedPlain pcm.Line
	for i := 0; i < 500; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = next()
		}
		img := c.Encode(11, data, storedCoded)
		codedVictims += count(storedCoded, img)
		storedCoded = img
		plainVictims += count(storedPlain, data)
		storedPlain = data
	}
	if codedVictims >= plainVictims {
		t.Fatalf("coding did not reduce victims: coded=%d plain=%d",
			codedVictims, plainVictims)
	}
}

func TestEdges(t *testing.T) {
	var reset pcm.Mask
	reset.SetBit(0)   // chip 0 left edge
	reset.SetBit(127) // chip 1 right edge
	reset.SetBit(300) // interior of chip 4
	e := Edges(reset)
	if !e.LeftAggressor[0] || e.RightAggressor[0] {
		t.Fatalf("segment 0 edges = %+v", e)
	}
	if !e.RightAggressor[1] || e.LeftAggressor[1] {
		t.Fatalf("segment 1 edges = %+v", e)
	}
	for s := 2; s < 8; s++ {
		if e.LeftAggressor[s] || e.RightAggressor[s] {
			t.Fatalf("segment %d must have no aggressors", s)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	c := newCodec(t)
	var stored pcm.Line
	for i := 0; i < 10; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i*7+w) * 0x123456789
		}
		stored = c.Encode(1, data, stored)
	}
	if c.Stats.Encodes != 10 {
		t.Fatalf("Encodes = %d", c.Stats.Encodes)
	}
}

func TestConstantsConsistent(t *testing.T) {
	if GroupsPerLine*GroupBits != pcm.LineBits {
		t.Fatal("group partitioning must tile the line")
	}
	if SegmentBits%GroupBits != 0 {
		t.Fatal("groups must not straddle chip segments")
	}
	if AuxBitsPerLine != 32 {
		t.Fatalf("aux overhead = %d bits, want 32", AuxBitsPerLine)
	}
}

// encodeOracle is the scalar per-group encoder the word-wide Encode
// replaced, kept as its reference: it returns the stored image, the coding
// word and the Stats one Encode of data over stored adds.
func encodeOracle(data, stored pcm.Line) (pcm.Line, uint32, Stats) {
	var aux uint32
	var st Stats
	out := data
	identityChanges, chosenChanges := 0, 0
	groupsPerSeg := SegmentBits / GroupBits
	for g := 0; g < GroupsPerLine; g++ {
		w, s := g*GroupBits/64, uint(g*GroupBits%64)
		oldBits := uint16(stored[w] >> s)
		plain := uint16(data[w] >> s)
		inv := ^plain
		// Greedy: groups to the left of g are already fixed in out.
		var leftOldBit, leftNewBit uint64
		posInSeg := g % groupsPerSeg
		hasLeft := posInSeg != 0
		if hasLeft {
			leftOldBit = stored.Bit(g*GroupBits - 1)
			leftNewBit = out.Bit(g*GroupBits - 1)
		}
		atSegStart := posInSeg == 0
		atSegEnd := posInSeg == groupsPerSeg-1
		cPlain := oracleGroupCost(oldBits, plain, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		cInv := oracleGroupCost(oldBits, inv, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		choose, chosen := plain, cPlain
		if !oracleBetter(cPlain, cInv) {
			choose, chosen = inv, cInv
			aux |= 1 << uint(g)
			st.GroupsInverted++
		}
		identityChanges += cPlain.changes
		chosenChanges += chosen.changes
		out[w] = (out[w] &^ (uint64(0xffff) << s)) | uint64(choose)<<s
	}
	if identityChanges > chosenChanges {
		st.BitsSaved = uint64(identityChanges - chosenChanges)
	}
	st.Encodes = 1
	reset, _ := pcm.DiffMasks(stored, out)
	st.VulnerableCells = uint64(Vulnerable(reset, stored, out).PopCount())
	return out, aux, st
}

// oracleCost ranks a candidate group coding.
type oracleCost struct {
	risk    int // vulnerable victims + weighted edge aggressors
	changes int // cells programmed
}

// oracleBetter reports whether a is preferable to b: lower risk first, then
// fewer programmed cells, with a (identity) winning exact ties.
func oracleBetter(a, b oracleCost) bool {
	if a.risk != b.risk {
		return a.risk < b.risk
	}
	return a.changes <= b.changes
}

// oracleGroupCost evaluates writing cand over old within one 16-cell group,
// counting in-group victims, the boundary pair with the already-fixed cell
// to the left, and segment-edge aggressors.
func oracleGroupCost(old, cand uint16, hasLeft bool, leftOld, leftNew uint64, atSegStart, atSegEnd bool) oracleCost {
	resets := old &^ cand     // cells pulsed 1→0
	idle := ^(old ^ cand)     // cells not programmed
	amorphous := idle & ^cand // idle cells reading 0
	changes := bits.OnesCount16(old ^ cand)
	risk := bits.OnesCount16(amorphous & ((resets << 1) | (resets >> 1)))
	if hasLeft {
		leftIdle := leftOld == leftNew
		if leftIdle && leftNew == 0 && resets&1 != 0 {
			risk++ // our bit 0 resetting victimises the fixed left cell
		}
		if leftOld == 1 && leftNew == 0 && amorphous&1 != 0 {
			risk++ // the left cell's RESET victimises our idle bit 0
		}
	}
	if atSegStart && resets&1 != 0 {
		risk += edgePenalty
	}
	if atSegEnd && resets&(1<<15) != 0 {
		risk += edgePenalty
	}
	return oracleCost{risk: risk, changes: changes}
}

// checkOracle encodes data over stored with a fresh codec and compares the
// image, the coding word and the stats with the scalar oracle.
func checkOracle(t *testing.T, data, stored pcm.Line) {
	t.Helper()
	c := newCodec(t)
	img := c.Encode(3, data, stored)
	want, wantAux, wantStats := encodeOracle(data, stored)
	if img != want || c.AuxBits(3) != wantAux || c.Stats != wantStats {
		t.Fatalf("Encode(%x over %x) = %x aux %#x %+v, oracle %x aux %#x %+v",
			data, stored, img, c.AuxBits(3), c.Stats, want, wantAux, wantStats)
	}
	if c.Decode(3, img) != data {
		t.Fatalf("Decode does not invert Encode for %x over %x", data, stored)
	}
}

// oracleSeeds are the structured (data, stored) pairs: all-zero and
// all-one lines against each other, and single-bit flips at group, segment
// and line boundaries.
func oracleSeeds() [][2]pcm.Line {
	var zero, ones pcm.Line
	for w := range ones {
		ones[w] = ^uint64(0)
	}
	seeds := [][2]pcm.Line{{zero, zero}, {ones, zero}, {zero, ones}, {ones, ones}}
	for _, b := range []int{0, 1, 14, 15, 16, 17, 31, 47, 48, 63, 64, 65, 255, 256, 510, 511} {
		z, o := zero, ones
		z.SetBit(b, 1)
		o.SetBit(b, 0)
		seeds = append(seeds, [2]pcm.Line{z, zero}, [2]pcm.Line{zero, z}, [2]pcm.Line{o, ones}, [2]pcm.Line{ones, o}, [2]pcm.Line{o, z})
	}
	return seeds
}

// TestEncodeMatchesOracle checks the word-wide encoder against the scalar
// oracle on the structured seeds and on random pairs, dense and sparse
// (sparse differences make cost ties, where identity must win).
func TestEncodeMatchesOracle(t *testing.T) {
	for _, s := range oracleSeeds() {
		checkOracle(t, s[0], s[1])
	}
	state := uint64(0x5eed)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 20000; i++ {
		var data, stored pcm.Line
		for w := range data {
			stored[w] = next()
			switch i % 3 {
			case 0:
				data[w] = next()
			case 1:
				data[w] = stored[w] ^ next()&next()&next() // few changes
			default:
				data[w] = ^stored[w] ^ next()&next()&next() // mostly inverted
			}
		}
		checkOracle(t, data, stored)
	}
}

// FuzzDINEncode differentially checks the word-wide encoder against the
// scalar oracle: the first 64 bytes are the data, the next 64 the stored
// image (short inputs are zero-padded).
func FuzzDINEncode(f *testing.F) {
	for _, s := range oracleSeeds() {
		var b []byte
		for _, l := range s {
			for _, w := range l {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf [2 * pcm.LineBytes]byte
		copy(buf[:], in)
		var data, stored pcm.Line
		for w := range data {
			data[w] = binary.LittleEndian.Uint64(buf[8*w:])
			stored[w] = binary.LittleEndian.Uint64(buf[pcm.LineBytes+8*w:])
		}
		checkOracle(t, data, stored)
	})
}

// BenchmarkDINEncode measures Encode on resident lines of a bound device:
// the word-wide cost search plus the slot-keyed coding-word store.
func BenchmarkDINEncode(b *testing.B) {
	dev, err := pcm.NewDevice(pcm.Config{Pages: 1024, FillSeed: 5})
	if err != nil {
		b.Fatal(err)
	}
	c := NewCodec()
	c.Bind(dev)
	const n = 4096
	addrs := make([]pcm.LineAddr, n)
	datas := make([]pcm.Line, n)
	state := uint64(99)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = pcm.LineAddr(state % uint64(dev.Lines()))
		for w := range datas[i] {
			state = state*6364136223846793005 + 1442695040888963407
			datas[i][w] = state
		}
	}
	for i, a := range addrs { // materialize every line and its table slot
		c.Encode(a, datas[i], dev.Peek(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		c.Encode(addrs[j], datas[j], datas[(j+1)%n])
	}
}
