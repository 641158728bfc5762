package pcm

import (
	"fmt"
	"math"
	"math/bits"

	"sdpcm/internal/metrics"
)

// Timing holds the PCM access latencies of Table 2, in CPU cycles (4 GHz:
// 100 ns read = 400 cycles, 200 ns SET = 800 cycles, 100 ns RESET = 400).
type Timing struct {
	ReadCycles   int
	ResetCycles  int
	SetCycles    int
	ParallelBits int // write-driver width (128 in Table 2)
}

// DefaultTiming is the Table 2 configuration.
var DefaultTiming = Timing{
	ReadCycles:   400,
	ResetCycles:  400,
	SetCycles:    800,
	ParallelBits: ParallelWriteBits,
}

// WriteCycles returns the bank-occupancy time of programming the given
// number of RESET and SET cells. The write drivers program ParallelBits
// cells per round with per-cell pulse shaping (Table 2: "128-bit parallel
// write"), so a round mixing both pulse classes lasts as long as its
// longest pulse — the 200 ns SET. RESET-only rounds finish in 100 ns. A
// write that changes nothing still occupies the bank for one RESET slot
// (row activation and drive setup).
func (t Timing) WriteCycles(nReset, nSet int) int {
	total := nReset + nSet
	if total == 0 {
		return t.ResetCycles
	}
	rounds := (total + t.ParallelBits - 1) / t.ParallelBits
	if nSet > 0 {
		return rounds * t.SetCycles
	}
	return rounds * t.ResetCycles
}

// WriteKind classifies device writes for wear accounting.
type WriteKind int

const (
	// NormalWrite is a demand write from the memory controller.
	NormalWrite WriteKind = iota
	// CorrectionWrite rewrites a neighbour line to clear WD errors (§4.2).
	CorrectionWrite
)

// Stats aggregates device activity; all counters are cumulative.
type Stats struct {
	Reads  uint64 // line reads (demand + verification + pre-reads)
	Writes uint64 // line write operations

	ResetPulses uint64 // total cells driven by RESET across all writes
	SetPulses   uint64 // total cells driven by SET across all writes

	CorrectionWrites      uint64 // writes with kind CorrectionWrite
	CorrectionResetPulses uint64 // RESET pulses spent on corrections

	DisturbedBits uint64 // cells flipped by write disturbance
}

// CellWrites returns the total number of programmed cells (wear proxy).
func (s Stats) CellWrites() uint64 { return s.ResetPulses + s.SetPulses }

// Counters lists the device counters as metric rows, in field order (which
// is also their checkpoint order).
func (s *Stats) Counters() []metrics.Field {
	return []metrics.Field{
		{Name: "pcm.reads", V: &s.Reads},
		{Name: "pcm.writes", V: &s.Writes},
		{Name: "pcm.reset_pulses", V: &s.ResetPulses},
		{Name: "pcm.set_pulses", V: &s.SetPulses},
		{Name: "pcm.correction_writes", V: &s.CorrectionWrites},
		{Name: "pcm.correction_reset_pulses", V: &s.CorrectionResetPulses},
		{Name: "pcm.disturbed_bits", V: &s.DisturbedBits},
	}
}

// Add accumulates another Stats value; all fields are additive, so folding
// per-module counters in module order is equivalent to a single global
// counter.
func (s *Stats) Add(o Stats) { metrics.AddFields(s.Counters(), o.Counters()) }

// chunkLines is the number of lines one chunk-table entry covers. Physically
// adjacent rows (the bit-line WD victims) are LinesPerPage bank-local lines
// apart, so 16-line chunks keep a write's victims within one or two chunk
// headers; storage itself is allocated per resident line, not per chunk.
const (
	chunkLines = 16
	chunkShift = 4
	chunkMask  = chunkLines - 1
)

// bankStore is one bank's resident lines, packed by line rather than by
// touched chunk: most chunks of a sparse workload hold a single line.
//
// The chunk index covers only the chunks up to the highest one touched so
// far: install grows it by doubling (from chunkIndexFloor entries, capped at
// the bank's chunk count), so a workload that touches the bottom of a bank
// never pays for an index of the whole bank. A chunk past the index is
// untouched.
//
// Index 0 of hdrs is a reserved all-zero sentinel, so finding a line's slot
// is one compare and three indexed loads: an untouched chunk maps to header
// 0, whose slots are all 0, and slot 0 means "not resident". Lines live in a
// block arena that never moves them. Apart from the arena's list of block
// pointers every table is pointer-free, so the GC scans almost nothing.
type bankStore struct {
	chunks    []uint32             // bank-local chunk index → header; 0 = untouched
	hdrs      [][chunkLines]uint32 // per touched chunk: line slot → arena index; 0 = not resident
	lines     Arena[Line]          // resident lines, in install order; slot 0 means not resident
	maxChunks int                  // the bank's chunk count, which bounds the index
}

// chunkIndexFloor is the length of a bank's chunk index after its first
// growth (256 B, 1024 lines).
const chunkIndexFloor = 64

// slot returns the arena index of a bank-local line, or 0 when the line is
// not resident.
func (st *bankStore) slot(local int) uint32 {
	ci := local >> chunkShift
	if uint(ci) >= uint(len(st.chunks)) {
		return 0
	}
	return st.hdrs[st.chunks[ci]][local&chunkMask]
}

// install makes a non-resident bank-local line resident with content l and
// returns its arena slot. The line never moves afterwards.
func (st *bankStore) install(local int, l Line) uint32 {
	ci := local >> chunkShift
	if ci >= len(st.chunks) {
		st.grow(ci)
	}
	h := st.chunks[ci]
	if h == 0 {
		h = uint32(len(st.hdrs))
		st.hdrs = append(st.hdrs, [chunkLines]uint32{})
		st.chunks[ci] = h
	}
	s := st.lines.Add(l)
	st.hdrs[h][local&chunkMask] = s
	return s
}

// grow extends the chunk index to cover chunk ci, which must lie inside the
// bank. make and copy, not append: append clears the whole extension, while
// a large make from fresh memory leaves the pages a sparse index never
// touches unfaulted.
func (st *bankStore) grow(ci int) {
	n := max(2*len(st.chunks), chunkIndexFloor)
	for n <= ci {
		n *= 2
	}
	chunks := make([]uint32, min(n, st.maxChunks))
	copy(chunks, st.chunks)
	st.chunks = chunks
}

// Device is one PCM DIMM's worth of data cell arrays. Storage is a per-bank
// dense store: a line is materialized (filled with the deterministic
// background pattern) on its first write or effective disturbance, and
// takes one arena slot plus, for the first line of its chunk, one 64-byte
// chunk header and an index entry, the index growing to the highest
// touched chunk. Untouched lines have no storage — Peek computes their
// background lazily — so disturbance vulnerability of untouched neighbours
// is modelled without materialising the full capacity, while every access to
// resident storage is plain array indexing with zero allocation.
//
// Bank-local layout: line a lives in bank Locate(a).Bank at local index
// row*LinesPerPage+slot, so physically adjacent rows (the bit-line WD
// victims, rows r±1) are LinesPerPage local lines apart and land in the
// same or a neighbouring chunk.
//
// Device is purely functional/data-level; command timing and scheduling live
// in the memory controller (internal/mc).
type Device struct {
	RowsPerBank int
	Timing      Timing

	geo Geometry

	stats Stats

	store    []bankStore
	numLines int // cached Lines(): the bound checkRange tests per access
	fillSeed uint64
	zeroFill bool
}

// Config parameterises a Device.
type Config struct {
	// Pages is the number of physical pages the device exposes. It must be
	// a positive multiple of the bank count so every bank has the same row
	// count.
	Pages int
	// Banks is the module's bank count, a power of two (0 = NumBanks, the
	// Figure 6 DIMM).
	Banks int
	// Timing defaults to DefaultTiming when zero.
	Timing Timing
	// FillSeed drives the deterministic background content of untouched
	// lines. Ignored when ZeroFill is set.
	FillSeed uint64
	// ZeroFill makes untouched lines all-zero (fully amorphous) instead of
	// pseudo-random. Useful for tests needing exact vulnerability control.
	ZeroFill bool
}

// NewDevice builds a device with cfg.Pages pages.
func NewDevice(cfg Config) (*Device, error) {
	nbanks := cfg.Banks
	if nbanks == 0 {
		nbanks = NumBanks
	}
	geo, err := NewGeometry(nbanks)
	if err != nil {
		return nil, err
	}
	if cfg.Pages <= 0 || cfg.Pages%nbanks != 0 {
		return nil, fmt.Errorf("pcm: Pages must be a positive multiple of %d, got %d", nbanks, cfg.Pages)
	}
	t := cfg.Timing
	if t == (Timing{}) {
		t = DefaultTiming
	}
	if t.ParallelBits <= 0 {
		return nil, fmt.Errorf("pcm: ParallelBits must be positive, got %d", t.ParallelBits)
	}
	// Arena indices are uint32 and slot 0 is the sentinel.
	if rows := cfg.Pages / nbanks; rows > math.MaxUint32/LinesPerPage-1 {
		return nil, fmt.Errorf("pcm: %d rows per bank exceed the store's 32-bit line index", rows)
	}
	d := &Device{
		RowsPerBank: cfg.Pages / nbanks,
		Timing:      t,
		geo:         geo,
		store:       make([]bankStore, nbanks),
		fillSeed:    cfg.FillSeed,
		zeroFill:    cfg.ZeroFill,
	}
	linesPerBank := d.RowsPerBank * LinesPerPage
	d.numLines = linesPerBank * nbanks
	for b := range d.store {
		d.store[b] = bankStore{
			hdrs:      make([][chunkLines]uint32, 1),
			maxChunks: linesPerBank / chunkLines, // LinesPerPage is a multiple of chunkLines
		}
	}
	return d, nil
}

// Banks returns the device's bank count.
func (d *Device) Banks() int { return d.geo.banks }

// Geometry returns the device's bank layout.
func (d *Device) Geometry() Geometry { return d.geo }

// Stats returns the device's counters.
func (d *Device) Stats() Stats { return d.stats }

// CountRead counts one array read. The controller counts every read that
// occupies the array (demand, verification, cascade and pre-reads) and
// fetches a line's content with Peek only where something consumes it.
func (d *Device) CountRead() { d.stats.Reads++ }

// Pages returns the number of pages the device exposes.
func (d *Device) Pages() int { return d.RowsPerBank * d.geo.banks }

// Lines returns the number of lines the device exposes.
func (d *Device) Lines() int { return d.numLines }

// contains reports whether the address is within the device.
func (d *Device) contains(a LineAddr) bool { return uint64(a) < uint64(d.numLines) }

// background returns the deterministic initial content of a line.
func (d *Device) background(a LineAddr) Line {
	var l Line
	for i := range l {
		l[i] = d.backgroundWord(a, i)
	}
	return l
}

// backgroundWord returns word w of a line's background: a SplitMix64 stream
// seeded per line, whose w-th output is word w.
func (d *Device) backgroundWord(a LineAddr, w int) uint64 {
	if d.zeroFill {
		return 0
	}
	seed := d.fillSeed ^ (uint64(a)+1)*0x9e3779b97f4a7c15
	z := seed + uint64(w+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkRange panics on out-of-range addresses: callers are inside the
// simulator and an out-of-range access is a bug, not an input error.
func (d *Device) checkRange(a LineAddr) {
	if !d.contains(a) {
		panic(fmt.Sprintf("pcm: line %d out of range (%d lines)", a, d.Lines()))
	}
}

// line returns a pointer to the stored image of a line, materializing it
// with its background content on first touch. Lines never move, so the
// pointer stays valid for the device's life; only DecodeState, which
// reassigns every slot, reuses the storage.
func (d *Device) line(a LineAddr) *Line {
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	if s := st.slot(local); s != 0 {
		return st.lines.At(s)
	}
	return st.lines.At(st.install(local, d.background(a)))
}

// Slot returns the bank of a line and its slot in that bank's arena of
// resident lines; slot 0 means the line is not resident (addresses past the
// device are never resident). A slot is stable for as long as the line is
// resident — lines are never evicted — and only DecodeState reassigns
// slots, so controller subsystems key their per-line state by (bank, slot)
// instead of building an index of their own.
func (d *Device) Slot(a LineAddr) (bank int, slot uint32) {
	if !d.contains(a) {
		return 0, 0
	}
	bank, local := d.geo.bankLocal(a)
	return bank, d.store[bank].slot(local)
}

// Resident reports whether a line has storage.
func (d *Device) Resident(a LineAddr) bool {
	_, s := d.Slot(a)
	return s != 0
}

// Materialize makes a line resident, filled with its background content
// when untouched, and returns its bank and slot. It panics on out-of-range
// addresses.
func (d *Device) Materialize(a LineAddr) (bank int, slot uint32) {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	if s := st.slot(local); s != 0 {
		return bank, s
	}
	return bank, st.install(local, d.background(a))
}

// VisitResident calls fn for every resident line of one bank in ascending
// bank-local order, which within a bank is ascending address order.
func (d *Device) VisitResident(bank int, fn func(a LineAddr, slot uint32)) {
	st := &d.store[bank]
	for ci, h := range st.chunks {
		if h == 0 {
			continue
		}
		for i, s := range st.hdrs[h] {
			if s != 0 {
				fn(d.geo.lineAt(bank, ci<<chunkShift|i), s)
			}
		}
	}
}

// Peek returns the current content of a line without touching statistics.
// It panics on out-of-range addresses. Peeking an untouched line computes
// the background pattern without materialising storage, so read-mostly
// scans stay cheap on memory.
func (d *Device) Peek(a LineAddr) Line {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	if s := st.slot(local); s != 0 {
		return *st.lines.At(s)
	}
	return d.background(a)
}

// PeekWord returns word w of a line's current content, as Peek(a)[w] does,
// without copying the line; for an untouched line it computes only that
// word of the background.
func (d *Device) PeekWord(a LineAddr, w int) uint64 {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	if s := st.slot(local); s != 0 {
		return st.lines.At(s)[w]
	}
	return d.backgroundWord(a, w)
}

// WriteResult describes the device-level effect of one line write.
type WriteResult struct {
	Reset  Mask // cells driven 1→0
	Set    Mask // cells driven 0→1
	Cycles int  // bank occupancy of the programming operation
}

// Write programs a line to new content using differential write and returns
// the pulse maps and bank occupancy. kind attributes the wear.
func (d *Device) Write(a LineAddr, new Line, kind WriteKind) WriteResult {
	d.checkRange(a)
	l := d.line(a)
	// Fused differential write: one pass computes both pulse maps, their
	// popcounts and the stored update (DiffMasks + 2×PopCount + copy would
	// walk the line four times).
	var reset, set Mask
	nr, ns := 0, 0
	for i := range l {
		r := l[i] &^ new[i]
		s := new[i] &^ l[i]
		reset[i], set[i] = r, s
		nr += bits.OnesCount64(r)
		ns += bits.OnesCount64(s)
		l[i] = new[i]
	}
	st := &d.stats
	st.Writes++
	st.ResetPulses += uint64(nr)
	st.SetPulses += uint64(ns)
	if kind == CorrectionWrite {
		st.CorrectionWrites++
		st.CorrectionResetPulses += uint64(nr)
	}
	return WriteResult{Reset: reset, Set: set, Cycles: d.Timing.WriteCycles(nr, ns)}
}

// Disturb crystallises the given cells of a line in place (0→1 flips caused
// by neighbouring RESET heat). Bits of the mask that are already 1 are
// ignored; the count of actually flipped cells is returned. Disturbance is
// not a programmed pulse and adds no wear. The stored line is mutated in
// place; a disturbance that flips nothing leaves an untouched line
// unmaterialized.
func (d *Device) Disturb(a LineAddr, flips Mask) int { return d.disturb(a, nil, &flips) }

// DisturbPeeked is Disturb for a caller that holds the line's current
// content, as Peek(a) returned it: an untouched line is installed from
// content rather than from a recomputed background.
func (d *Device) DisturbPeeked(a LineAddr, content Line, flips Mask) int {
	return d.disturb(a, &content, &flips)
}

// disturb applies flips to line a; content, when not nil, is the line's
// current image, so an untouched line need not compute its background.
func (d *Device) disturb(a LineAddr, content *Line, flips *Mask) int {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	n := 0
	if s := st.slot(local); s != 0 {
		l := st.lines.At(s)
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ l[i])
		}
		if n > 0 {
			for i := range flips {
				l[i] |= flips[i]
			}
		}
	} else {
		var img Line
		if content != nil {
			img = *content
		} else {
			img = d.background(a)
		}
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ img[i])
		}
		if n > 0 {
			// Install the image already in hand rather than going through
			// line(), which would recompute the background.
			for i := range flips {
				img[i] |= flips[i]
			}
			st.install(local, img)
		}
	}
	if n > 0 {
		d.stats.DisturbedBits += uint64(n)
	}
	return n
}
