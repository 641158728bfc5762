package pcm

import (
	"fmt"
	"math"
	"math/bits"
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

// Add accumulates another Stats value; all fields are additive, so folding
// per-bank shards in bank order is equivalent to a single global counter.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ResetPulses += o.ResetPulses
	s.SetPulses += o.SetPulses
	s.CorrectionWrites += o.CorrectionWrites
	s.CorrectionResetPulses += o.CorrectionResetPulses
	s.DisturbedBits += o.DisturbedBits
}

// bankStats pads one bank's counters to a full cache line so shard
// goroutines updating different banks never contend on a shared line.
type bankStats struct {
	Stats
	_ [64 - (8*7)%64]byte
}

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
// Index 0 of hdrs and of lines is a reserved all-zero sentinel, so a lookup
// is three indexed loads and one branch: an untouched chunk maps to header 0,
// whose slots are all 0, and slot 0 means "not resident". Every table is
// pointer-free, so the GC never scans the store.
type bankStore struct {
	chunks []uint32             // bank-local chunk index → header; 0 = untouched
	hdrs   [][chunkLines]uint32 // per touched chunk: line slot → arena index; 0 = not resident
	lines  []Line               // dense arena of resident lines, in install order
}

// slot returns the arena index of a bank-local line, or 0 when the line is
// not resident.
func (st *bankStore) slot(local int) uint32 {
	return st.hdrs[st.chunks[local>>chunkShift]][local&chunkMask]
}

// install makes a non-resident bank-local line resident with content l and
// returns its stored image. The arena may move when it grows, so the pointer
// is valid only until the next install.
func (st *bankStore) install(local int, l Line) *Line {
	ci := local >> chunkShift
	h := st.chunks[ci]
	if h == 0 {
		h = uint32(len(st.hdrs))
		st.hdrs = append(st.hdrs, [chunkLines]uint32{})
		st.chunks[ci] = h
	}
	s := uint32(len(st.lines))
	st.lines = append(st.lines, l)
	st.hdrs[h][local&chunkMask] = s
	return &st.lines[s]
}

// Device is one PCM DIMM's worth of data cell arrays. Storage is a per-bank
// dense store: a line is materialized (filled with the deterministic
// background pattern) on its first write or effective disturbance, and
// takes one arena slot plus, for the first line of its chunk, one 64-byte
// chunk header. Untouched lines have no storage — Peek computes their
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

	// stats is sharded per bank (cache-line padded) so controllers driving
	// disjoint banks from different goroutines can count without contention;
	// Stats() folds the shards.
	stats []bankStats

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
		stats:       make([]bankStats, nbanks),
		store:       make([]bankStore, nbanks),
		fillSeed:    cfg.FillSeed,
		zeroFill:    cfg.ZeroFill,
	}
	linesPerBank := d.RowsPerBank * LinesPerPage
	d.numLines = linesPerBank * nbanks
	chunksPerBank := (linesPerBank + chunkLines - 1) / chunkLines
	for b := range d.store {
		d.store[b] = bankStore{
			chunks: make([]uint32, chunksPerBank),
			hdrs:   make([][chunkLines]uint32, 1),
			lines:  make([]Line, 1),
		}
	}
	return d, nil
}

// Banks returns the device's bank count.
func (d *Device) Banks() int { return d.geo.banks }

// Geometry returns the device's bank layout.
func (d *Device) Geometry() Geometry { return d.geo }

// Stats folds the per-bank counter shards into one aggregate view. It is
// only meaningful when no bank is concurrently active (e.g. after a run, or
// between conservative-window barriers).
func (d *Device) Stats() Stats {
	var s Stats
	for b := range d.stats {
		s.Add(d.stats[b].Stats)
	}
	return s
}

// BankStats returns one bank's counters (same quiescence caveat as Stats).
func (d *Device) BankStats(bank int) Stats { return d.stats[bank].Stats }

// CountRead attributes one array read to the line's bank without performing
// it — the controller's read-combining paths serve data from queue state but
// still occupy the array (verification, cascade and pre-reads).
func (d *Device) CountRead(a LineAddr) {
	bank, _ := d.geo.bankLocal(a)
	d.stats[bank].Reads++
}

// Pages returns the number of pages the device exposes.
func (d *Device) Pages() int { return d.RowsPerBank * d.geo.banks }

// Lines returns the number of lines the device exposes.
func (d *Device) Lines() int { return d.numLines }

// contains reports whether the address is within the device.
func (d *Device) contains(a LineAddr) bool { return uint64(a) < uint64(d.numLines) }

// background returns the deterministic initial content of a line.
func (d *Device) background(a LineAddr) Line {
	var l Line
	if d.zeroFill {
		return l
	}
	state := d.fillSeed ^ (uint64(a)+1)*0x9e3779b97f4a7c15
	for i := range l {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		l[i] = z ^ (z >> 31)
	}
	return l
}

// checkRange panics on out-of-range addresses: callers are inside the
// simulator and an out-of-range access is a bug, not an input error.
func (d *Device) checkRange(a LineAddr) {
	if !d.contains(a) {
		panic(fmt.Sprintf("pcm: line %d out of range (%d lines)", a, d.Lines()))
	}
}

// line returns a pointer to the stored image of a line, materializing it
// with its background content on first touch. The pointer is valid only
// until the next install into the same bank.
func (d *Device) line(a LineAddr) *Line {
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	if s := st.slot(local); s != 0 {
		return &st.lines[s]
	}
	return st.install(local, d.background(a))
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
		return st.lines[s]
	}
	return d.background(a)
}

// Read returns a line's content and counts one array read. Timing is the
// caller's concern (Timing.ReadCycles).
func (d *Device) Read(a LineAddr) Line {
	d.CountRead(a)
	return d.Peek(a)
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
	bank, _ := d.geo.bankLocal(a)
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
	st := &d.stats[bank].Stats
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
func (d *Device) Disturb(a LineAddr, flips Mask) int {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	st := &d.store[bank]
	n := 0
	if s := st.slot(local); s != 0 {
		l := &st.lines[s]
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ l[i])
		}
		if n > 0 {
			for i := range flips {
				l[i] |= flips[i]
			}
		}
	} else {
		bg := d.background(a)
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ bg[i])
		}
		if n > 0 {
			// Install the background image already in hand rather than
			// going through line(), which would recompute it.
			for i := range flips {
				bg[i] |= flips[i]
			}
			st.install(local, bg)
		}
	}
	if n > 0 {
		d.stats[bank].DisturbedBits += uint64(n)
	}
	return n
}
