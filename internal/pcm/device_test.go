package pcm

import (
	"testing"
	"testing/quick"
	"unsafe"

	"sdpcm/internal/snap"
)

func newTestDevice(t *testing.T, pages int, zero bool) *Device {
	t.Helper()
	d, err := NewDevice(Config{Pages: pages, FillSeed: 1, ZeroFill: zero})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Config{Pages: 0}); err == nil {
		t.Error("zero pages must be rejected")
	}
	if _, err := NewDevice(Config{Pages: 17}); err == nil {
		t.Error("pages not multiple of NumBanks must be rejected")
	}
	if _, err := NewDevice(Config{Pages: 16, Timing: Timing{ReadCycles: 1, ResetCycles: 1, SetCycles: 1}}); err == nil {
		t.Error("zero ParallelBits must be rejected")
	}
	if _, err := NewDevice(Config{Pages: NumBanks << 26}); err == nil {
		t.Error("a bank past the store's 32-bit line index must be rejected")
	}
	d, err := NewDevice(Config{Pages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if d.Pages() != 32 || d.RowsPerBank != 2 || d.Lines() != 32*LinesPerPage {
		t.Errorf("device sizing wrong: %d pages, %d rows, %d lines",
			d.Pages(), d.RowsPerBank, d.Lines())
	}
	if d.Timing != DefaultTiming {
		t.Error("zero Timing must default to DefaultTiming")
	}
}

func TestBackgroundDeterministic(t *testing.T) {
	d1 := newTestDevice(t, 16, false)
	d2 := newTestDevice(t, 16, false)
	for a := LineAddr(0); a < 100; a++ {
		if d1.Peek(a) != d2.Peek(a) {
			t.Fatalf("background content differs at %d", a)
		}
	}
	// Different seeds give different content.
	d3, _ := NewDevice(Config{Pages: 16, FillSeed: 2})
	diff := 0
	for a := LineAddr(0); a < 100; a++ {
		if d1.Peek(a) != d3.Peek(a) {
			diff++
		}
	}
	if diff < 99 {
		t.Fatalf("different seeds shared %d of 100 lines", 100-diff)
	}
}

// TestPeekWordMatchesPeek checks every word of untouched, written and
// disturbed lines, on a pseudo-random and a zero-filled background.
func TestPeekWordMatchesPeek(t *testing.T) {
	for _, zero := range []bool{false, true} {
		d, err := NewDevice(Config{Pages: 64, FillSeed: 11, ZeroFill: zero})
		if err != nil {
			t.Fatal(err)
		}
		d.Write(LineOf(3, 7), Line{1, 2, 3, 4, 5, 6, 7, 8}, NormalWrite)
		d.Disturb(LineOf(19, 7), Mask{^uint64(0)})
		for a := LineAddr(0); a < LineAddr(d.Lines()); a++ {
			want := d.Peek(a)
			for w := range want {
				if got := d.PeekWord(a, w); got != want[w] {
					t.Fatalf("zero=%v line %d word %d: PeekWord %#x, Peek %#x", zero, a, w, got, want[w])
				}
			}
		}
	}
}

func TestBackgroundBitBalance(t *testing.T) {
	// Random fill should be roughly half ones so ~half the cells are
	// WD-vulnerable, as with arbitrary resident data.
	d := newTestDevice(t, 16, false)
	ones := 0
	const lines = 200
	for a := LineAddr(0); a < lines; a++ {
		l := d.Peek(a)
		ones += l.PopCount()
	}
	total := lines * LineBits
	frac := float64(ones) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("background one-density = %v, want ~0.5", frac)
	}
}

func TestZeroFill(t *testing.T) {
	d := newTestDevice(t, 16, true)
	if d.Peek(0) != (Line{}) {
		t.Fatal("zero-fill device must start all-amorphous")
	}
}

func TestWriteThenRead(t *testing.T) {
	d := newTestDevice(t, 16, true)
	var l Line
	l[0] = 0xdeadbeef
	l[7] = 1 << 63
	d.Write(5, l, NormalWrite)
	d.CountRead()
	if got := d.Peek(5); got != l {
		t.Fatalf("read back %v, want %v", got, l)
	}
	if d.Stats().Reads != 1 || d.Stats().Writes != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestWritePulseAccounting(t *testing.T) {
	d := newTestDevice(t, 16, true)
	var l Line
	l[0] = 0xff // 8 SET pulses from all-zero
	res := d.Write(9, l, NormalWrite)
	if res.Set.PopCount() != 8 || res.Reset.PopCount() != 0 {
		t.Fatalf("pulse maps: set=%d reset=%d", res.Set.PopCount(), res.Reset.PopCount())
	}
	if d.Stats().SetPulses != 8 || d.Stats().ResetPulses != 0 {
		t.Fatalf("stats = %+v", d.Stats())
	}
	// Now clear 3 of them: 3 RESET pulses.
	l[0] = 0x1f
	res = d.Write(9, l, NormalWrite)
	if res.Reset.PopCount() != 3 || res.Set.PopCount() != 0 {
		t.Fatalf("second write pulses: %+v", res)
	}
	if res.Cycles != DefaultTiming.ResetCycles {
		t.Fatalf("reset-only write cycles = %d", res.Cycles)
	}
}

func TestDifferentialWriteSkipsUnchanged(t *testing.T) {
	if err := quick.Check(func(o, n [8]uint64) bool {
		d, err := NewDevice(Config{Pages: 16, ZeroFill: true})
		if err != nil {
			return false
		}
		d.Write(3, Line(o), NormalWrite)
		before := d.Stats().CellWrites()
		res := d.Write(3, Line(n), NormalWrite)
		pulses := d.Stats().CellWrites() - before
		// Pulses must equal the Hamming distance, never the full line.
		return int(pulses) == Line(o).Xor(Line(n)).PopCount() &&
			res.Reset.PopCount()+res.Set.PopCount() == int(pulses)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectionWearAttribution(t *testing.T) {
	d := newTestDevice(t, 16, true)
	var l Line
	l[0] = 0xf
	d.Write(1, l, NormalWrite)
	d.Write(1, Line{}, CorrectionWrite) // clears 4 bits via RESET
	if d.Stats().CorrectionWrites != 1 {
		t.Fatalf("correction writes = %d", d.Stats().CorrectionWrites)
	}
	if d.Stats().CorrectionResetPulses != 4 {
		t.Fatalf("correction reset pulses = %d", d.Stats().CorrectionResetPulses)
	}
}

func TestDisturb(t *testing.T) {
	d := newTestDevice(t, 16, true)
	var flips Mask
	flips.SetBit(0)
	flips.SetBit(100)
	n := d.Disturb(7, flips)
	if n != 2 {
		t.Fatalf("disturbed %d cells, want 2", n)
	}
	got := d.Peek(7)
	if got.Bit(0) != 1 || got.Bit(100) != 1 {
		t.Fatal("disturbed bits must crystallise to 1")
	}
	// Disturbing already-crystalline cells is a no-op.
	if n := d.Disturb(7, flips); n != 0 {
		t.Fatalf("re-disturb flipped %d cells, want 0", n)
	}
	if d.Stats().DisturbedBits != 2 {
		t.Fatalf("DisturbedBits = %d", d.Stats().DisturbedBits)
	}
	// Disturbance adds no wear.
	if d.Stats().ResetPulses != 0 || d.Stats().SetPulses != 0 {
		t.Fatal("disturbance must not count as programmed pulses")
	}
}

func TestPeekOutOfRangePanics(t *testing.T) {
	d := newTestDevice(t, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Peek")
		}
	}()
	d.Peek(LineAddr(d.Lines()))
}

func TestWriteOutOfRangePanics(t *testing.T) {
	d := newTestDevice(t, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Write")
		}
	}()
	d.Write(LineAddr(d.Lines()), Line{}, NormalWrite)
}

func TestDisturbOutOfRangePanics(t *testing.T) {
	d := newTestDevice(t, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Disturb")
		}
	}()
	d.Disturb(LineAddr(d.Lines()), Mask{})
}

// TestMaterializedChunkMatchesBackground pins the dense store's key
// invariant: touching one line of a chunk leaves every other line reading
// exactly the background pattern a lazy Peek would have computed. An
// untouched reference device is the oracle.
func TestMaterializedChunkMatchesBackground(t *testing.T) {
	const pages = 64
	dirty, err := NewDevice(Config{Pages: pages, FillSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDevice(Config{Pages: pages, FillSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// One write materializes line 100 and a header for its chunk.
	dirty.Write(100, Line{0xabc}, NormalWrite)
	for a := LineAddr(0); a < LineAddr(dirty.Lines()); a++ {
		if a == 100 {
			continue
		}
		if dirty.Peek(a) != fresh.Peek(a) {
			t.Fatalf("line %d diverged from background after unrelated write", a)
		}
	}
	if dirty.Peek(100) != (Line{0xabc}) {
		t.Fatal("written line lost its content")
	}
}

// TestDisturbDoesNotMaterializeOnNoop: a disturbance that flips nothing must
// leave an untouched line unmaterialized (Peek still serves the background),
// and an effective one must land in dense storage.
func TestDisturbDoesNotMaterializeOnNoop(t *testing.T) {
	d := newTestDevice(t, 16, false)
	a := LineAddr(5)
	bg := d.Peek(a)
	// Flip mask fully covered by already-crystalline background bits.
	var noop Mask
	for i := 0; i < LineBits; i++ {
		if bg.Bit(i) == 1 {
			noop.SetBit(i)
			break
		}
	}
	if n := d.Disturb(a, noop); n != 0 {
		t.Fatalf("no-op disturb flipped %d cells", n)
	}
	if d.Resident(a) {
		t.Fatal("no-op disturb materialized the line")
	}
	// Now flip an amorphous cell: the line materializes and holds bg|flip.
	var eff Mask
	for i := 0; i < LineBits; i++ {
		if bg.Bit(i) == 0 {
			eff.SetBit(i)
			break
		}
	}
	if n := d.Disturb(a, eff); n != 1 {
		t.Fatalf("effective disturb flipped %d cells, want 1", n)
	}
	if !d.Resident(a) {
		t.Fatal("effective disturb did not materialize the line")
	}
	want := bg
	for i := range want {
		want[i] |= eff[i]
	}
	if d.Peek(a) != want {
		t.Fatal("materialized line is not background | flips")
	}
	if d.Resident(a + 1) {
		t.Fatal("materializing one line made its chunk neighbour resident")
	}
}

// storeBytes is the memory a device's store holds beyond its chunk indexes
// (4 B per chunk up to a bank's highest touched one, which a scatter over
// the whole device grows to the bank's chunk count): the capacity of every
// bank's header table and line blocks.
func storeBytes(d *Device) int {
	n := 0
	for b := range d.store {
		st := &d.store[b]
		n += cap(st.hdrs)*int(unsafe.Sizeof(st.hdrs[0])) + len(st.lines.blocks)*int(unsafe.Sizeof(*st.lines.blocks[0]))
	}
	return n
}

// residentLines counts a device's materialized lines.
func residentLines(d *Device) int {
	n := 0
	for b := range d.store {
		n += max(int(d.store[b].lines.n)-1, 0) // slot 0 is never handed out
	}
	return n
}

// TestDeviceFootprint pins the store's cost per resident line on the access
// pattern that dominates real runs: scattered first touches, nearly one line
// per 16-line chunk. Storage allocated per touched chunk would cost over
// 1 KB per line here.
func TestDeviceFootprint(t *testing.T) {
	d, err := NewDevice(Config{Pages: 1 << 21, FillSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	state, want := uint64(777), 0
	for range 20000 {
		state = state*6364136223846793005 + 1442695040888963407
		a := LineAddr(state % uint64(d.Lines()))
		was := d.Resident(a)
		if state&1 == 0 {
			d.Write(a, Line{state}, NormalWrite)
		} else {
			var flips Mask
			flips.SetBit(int(state>>40) % LineBits)
			d.Disturb(a, flips) // materializes only when the cell was amorphous
		}
		if !was && d.Resident(a) {
			want++
		}
	}
	n := residentLines(d)
	if n != want || n < 10000 {
		t.Fatalf("%d lines resident, want %d (of 20000 touches)", n, want)
	}
	per := float64(storeBytes(d)) / float64(n)
	if per >= 256 {
		t.Fatalf("store holds %.0f B per resident line, want < 256", per)
	}
	t.Logf("%d resident lines, %.0f B each", n, per)
}

// TestDeviceHotPathAllocFree pins the zero-allocation contract of the data
// plane: once a line is materialized, Peek, Write and Disturb never touch
// the heap.
func TestDeviceHotPathAllocFree(t *testing.T) {
	d := newTestDevice(t, 64, false)
	addrs := []LineAddr{0, 100, 1000, LineAddr(d.Lines() - 1)}
	for _, a := range addrs {
		d.Write(a, Line{1, 2, 3}, NormalWrite) // materialize
	}
	var flips Mask
	flips.SetBit(7)
	flips.SetBit(400)
	var sink Line
	if n := testing.AllocsPerRun(200, func() {
		for _, a := range addrs {
			sink = d.Peek(a)
		}
	}); n != 0 {
		t.Errorf("Peek allocates %v/run", n)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		for _, a := range addrs {
			i++
			d.Write(a, Line{i}, NormalWrite)
		}
	}); n != 0 {
		t.Errorf("Write allocates %v/run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, a := range addrs {
			d.Disturb(a, flips)
		}
	}); n != 0 {
		t.Errorf("Disturb allocates %v/run", n)
	}
	_ = sink
}

// TestChunkIndexGrowsWithTouches: a fresh device holds no chunk index, reads
// and no-op disturbances never grow it, and writes grow each bank's index by
// doubling only as far as the bank's highest touched chunk, never past the
// bank. A checkpoint restores every line into a fresh device.
func TestChunkIndexGrowsWithTouches(t *testing.T) {
	d, err := NewDevice(Config{Pages: 1 << 21, FillSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	emptyIndex := func(when string) {
		t.Helper()
		for b := range d.store {
			if c := cap(d.store[b].chunks); c != 0 {
				t.Fatalf("%s: bank %d holds a %d-entry chunk index", when, b, c)
			}
		}
	}
	emptyIndex("fresh device")
	last := LineAddr(d.Lines() - 1)
	bg := d.background(last)
	if d.Peek(last) != bg || d.PeekWord(last, 7) != bg[7] {
		t.Fatal("an untouched line must read as its background")
	}
	if _, s := d.Slot(last); s != 0 || d.Resident(last) {
		t.Fatal("an untouched line has no slot")
	}
	if n := d.Disturb(last, Mask(bg)); n != 0 {
		t.Fatalf("disturbing crystalline cells flipped %d", n)
	}
	if n := d.DisturbPeeked(last, bg, Mask(bg)); n != 0 {
		t.Fatalf("disturbing crystalline cells flipped %d", n)
	}
	emptyIndex("after reads and no-op disturbances")

	// Low addresses only: the first 5000 lines, every seventh one.
	hi := make([]int, d.Banks()) // highest touched chunk per bank, -1 = none
	for b := range hi {
		hi[b] = -1
	}
	for a := LineAddr(0); a < 5000; a += 7 {
		d.Write(a, Line{uint64(a)}, NormalWrite)
		b, local := d.geo.bankLocal(a)
		hi[b] = max(hi[b], local>>chunkShift)
	}
	for b := range d.store {
		st := &d.store[b]
		c := cap(st.chunks)
		if hi[b] < 0 {
			if c != 0 {
				t.Fatalf("untouched bank %d holds a %d-entry chunk index", b, c)
			}
			continue
		}
		if c <= hi[b] || c > max(2*(hi[b]+1), chunkIndexFloor) || c > st.maxChunks {
			t.Fatalf("bank %d: chunk index of %d entries for highest chunk %d (bank has %d)", b, c, hi[b], st.maxChunks)
		}
	}

	// A small bank caps the index at its chunk count.
	small := newTestDevice(t, 16, true)
	small.Write(0, Line{1}, NormalWrite)
	if c, want := cap(small.store[0].chunks), small.store[0].maxChunks; c != want {
		t.Fatalf("a 4-chunk bank grew a %d-entry index, want %d", c, want)
	}

	e := snap.NewEncoder(1)
	d.EncodeState(e)
	dec, err := snap.NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDevice(Config{Pages: 1 << 21, FillSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	for a := LineAddr(0); a < 5000; a++ {
		if d2.Resident(a) != d.Resident(a) || d2.Peek(a) != d.Peek(a) {
			t.Fatalf("line %d differs after decode", a)
		}
	}
}
