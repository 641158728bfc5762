// Package ecp implements Error-Correcting Pointers (ECP [28]) as used by
// SD-PCM's LazyCorrection (§4.2).
//
// Each protected 64 B line owns N pointer entries; an entry names one cell
// (9-bit address within the 512-cell line) and stores its correct value
// (1 bit). ECP was designed for hard (stuck-at) errors; SD-PCM additionally
// parks freshly detected write-disturbance errors in whatever entries hard
// errors have not consumed. A disturbed cell's true value is always '0'
// (only idle amorphous cells are vulnerable), so reads return corrected data
// by forcing recorded cells to zero, and a deferred correction write simply
// RESETs them.
//
// Entry policy (§4.2): hard errors have allocation priority. A normal write
// to a line rewrites its data and therefore clears the line's accumulated WD
// entries for free; hard-error entries persist for the lifetime of the cell.
//
// The ECP pointers themselves live in a *low density* (8F², WD-free along
// both axes) ECP chip, so recording an entry never triggers further
// verification; it does, however, wear the ECP chip — each recorded WD error
// writes AddressBits+1 = 10 cells there (§6.7), which this package accounts.
package ecp

import (
	"fmt"

	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// AddressBits is the width of one pointer (log2 of cells per line).
const AddressBits = 9

// BitsPerEntry is the ECP-chip cells written when recording one entry:
// the pointer plus the correct-value bit.
const BitsPerEntry = AddressBits + 1

// DefaultEntries is the paper's default ECP-6 configuration.
const DefaultEntries = 6

// Stats aggregates ECP activity across all lines.
type Stats struct {
	WDRecorded       uint64 // WD errors newly parked in entries
	WDDuplicates     uint64 // WD detections already covered by an entry
	Overflows        uint64 // record attempts that exceeded free entries
	ClearedByWrite   uint64 // WD entries released by a normal data write
	ClearedByCorrect uint64 // WD entries released by a correction write
	ECPBitWrites     uint64 // cells programmed in the ECP chip (wear proxy)
}

// Counters lists the table counters as metric rows, in field order (which
// is also their checkpoint order).
func (s *Stats) Counters() []metrics.Field {
	return []metrics.Field{
		{Name: "ecp.wd_recorded", V: &s.WDRecorded},
		{Name: "ecp.wd_duplicates", V: &s.WDDuplicates},
		{Name: "ecp.overflows", V: &s.Overflows},
		{Name: "ecp.cleared_by_write", V: &s.ClearedByWrite},
		{Name: "ecp.cleared_by_correct", V: &s.ClearedByCorrect},
		{Name: "ecp.bit_writes", V: &s.ECPBitWrites},
	}
}

// Add accumulates another Stats value; all fields are additive, so the
// per-module controllers' tables merge commutatively.
func (s *Stats) Add(o Stats) { metrics.AddFields(s.Counters(), o.Counters()) }

// lineState is the per-line entry bookkeeping. WD entries are kept as an
// ordered slice of cell indices; hard errors are abstract (only their count
// matters to entry pressure — their addresses never change).
type lineState struct {
	hard int
	wd   []uint16
	// seen holds every cell index ever recorded on this line. The ECP chip
	// uses differential write too: re-recording a pointer whose bits are
	// still in the (invalidated) entry from an earlier round only rewrites
	// the valid bit, not the full 10-bit entry.
	seen []uint16
}

// Table is the ECP state for one DIMM: N entries per line, sparse over the
// address space.
type Table struct {
	// N is the number of entries per line (ECP-N). N == 0 disables ECP:
	// every record attempt overflows, degenerating to basic VnC.
	N int

	Stats Stats

	// age supplies the entries hard errors pre-consume on a line the first
	// time its state is touched (see SetLifetime).
	age aging

	// index maps a tracked line, by the bound device's resident-line slot,
	// to its state in lines; index 0 means untracked. Only a minority of
	// resident lines ever hold entries, hence the indirection rather than a
	// lineState per slot. The arena's fixed blocks never copy on growth.
	index pcm.LineTable
	lines pcm.Arena[lineState]

	// scratch backs RecordWD's dedup pass; reused across calls so the
	// steady-state record path allocates nothing. RecordWD is not reentrant.
	scratch []uint16

	// Occupancy histograms (nil when uninstrumented): entries in use after
	// each successful park and at each correction-write flush — the entry
	// pressure LazyCorrection's X+Y<=N rule lives or dies by.
	parkOcc, flushOcc *metrics.Histogram
}

// New creates a standalone ECP-N table (see pcm.NewLineTable) until Bind
// attaches it to the device it protects. N must be non-negative.
func New(n int) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("ecp: negative entry count %d", n)
	}
	return &Table{N: n, index: pcm.NewLineTable(nil)}, nil
}

// Bind keys the table's per-line state by dev's resident-line slots,
// dropping any state it held. The controller binds its table to the device
// it protects before the first write.
func (t *Table) Bind(dev *pcm.Device) {
	t.index = pcm.NewLineTable(dev)
	t.lines.Reset()
}

// IndexBytes returns the capacity of the table's per-slot index, in bytes
// (the line states themselves live only for tracked lines).
func (t *Table) IndexBytes() int { return t.index.Bytes() }

// lookup returns a tracked line's state, or nil.
func (t *Table) lookup(a pcm.LineAddr) *lineState {
	if i := t.index.Get(a); i != 0 {
		return t.lines.At(i)
	}
	return nil
}

// track returns a line's state, creating it (with its hard errors) on first
// use.
func (t *Table) track(a pcm.LineAddr) *lineState {
	if s := t.lookup(a); s != nil {
		return s
	}
	// One allocation backs both entry lists: wd never holds more than N,
	// and seen starts with room for one full round.
	buf := make([]uint16, 2*t.N)
	i := t.lines.Add(lineState{hard: t.hardFor(a), wd: buf[:0:t.N], seen: buf[t.N:t.N]})
	t.index.Put(a, i)
	return t.lines.At(i)
}

// SetLifetime ages the DIMM to the given fraction of its lifetime (§6.4
// Fig. 14; 0 is pristine, 1 end of life): as it wears out, hard errors
// crowd out LazyCorrection. Each line's hard errors are drawn the first
// time its state is touched, capped at N. Call it before the first write.
func (t *Table) SetLifetime(fraction float64) { t.age = newAging(fraction) }

// hardFor returns the hard errors an untracked line starts with.
func (t *Table) hardFor(a pcm.LineAddr) int { return min(t.age.hardErrors(a), t.N) }

// Instrument attaches occupancy histograms to the table. A nil registry
// leaves the table uninstrumented (the zero-cost default).
func (t *Table) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	bounds := []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16}
	t.parkOcc = reg.Histogram("ecp.occupancy_at_park", bounds)
	t.flushOcc = reg.Histogram("ecp.occupancy_at_flush", bounds)
}

// HardErrors returns the number of entries consumed by hard errors on a
// line. Querying an untracked line does not start tracking it.
func (t *Table) HardErrors(a pcm.LineAddr) int {
	if s := t.lookup(a); s != nil {
		return s.hard
	}
	return t.hardFor(a)
}

// SetHardErrors pins n entries of the line for hard errors (clamped to
// [0, N]). Existing WD entries that no longer fit are dropped as if a
// correction had cleared them; the caller is responsible for actually
// correcting the array if it cares (lifetime experiments do not, they only
// model entry pressure).
func (t *Table) SetHardErrors(a pcm.LineAddr, n int) {
	s := t.track(a)
	s.hard = min(max(n, 0), t.N)
	if free := t.N - s.hard; len(s.wd) > free {
		s.wd = s.wd[:free]
	}
}

// Recorded returns the total occupied entries (hard + WD) of a line.
// Querying an untracked line does not start tracking it.
func (t *Table) Recorded(a pcm.LineAddr) int {
	if s := t.lookup(a); s != nil {
		return s.hard + len(s.wd)
	}
	return t.hardFor(a)
}

// Free returns the number of unoccupied entries of a line.
func (t *Table) Free(a pcm.LineAddr) int { return t.N - t.Recorded(a) }

// WDBits returns the cell indices of the line's recorded WD errors,
// ascending insertion order. The slice is a copy.
func (t *Table) WDBits(a pcm.LineAddr) []int {
	s := t.lookup(a)
	if s == nil || len(s.wd) == 0 {
		return nil
	}
	out := make([]int, len(s.wd))
	for i, b := range s.wd {
		out[i] = int(b)
	}
	return out
}

// RecordWD tries to park newly detected disturbed cells (bit indices within
// the line) into free entries. Detections already covered by an entry are
// deduplicated and always succeed. If the remaining new cells do not all
// fit, nothing new is recorded and ok is false: the caller must fall back to
// an immediate correction write (LazyCorrection's X+Y>N case).
func (t *Table) RecordWD(a pcm.LineAddr, cells []int) (ok bool) {
	if len(cells) == 0 {
		return true
	}
	s := t.track(a)
	fresh := t.scratch[:0]
	for _, c := range cells {
		if c < 0 || c >= pcm.LineBits {
			panic(fmt.Sprintf("ecp: cell index %d out of range", c))
		}
		if s.has(uint16(c)) || containsU16(fresh, uint16(c)) {
			t.Stats.WDDuplicates++
			continue
		}
		fresh = append(fresh, uint16(c))
	}
	t.scratch = fresh[:0]
	if len(fresh) == 0 {
		return true
	}
	if s.hard+len(s.wd)+len(fresh) > t.N {
		t.Stats.Overflows++
		return false
	}
	s.wd = append(s.wd, fresh...)
	t.Stats.WDRecorded += uint64(len(fresh))
	t.parkOcc.Observe(uint64(s.hard + len(s.wd)))
	for _, c := range fresh {
		if containsU16(s.seen, c) {
			// Pointer bits unchanged from a previous round: only the valid
			// bit flips (differential write in the ECP chip).
			t.Stats.ECPBitWrites++
			continue
		}
		t.Stats.ECPBitWrites += BitsPerEntry
		if len(s.seen) < pcm.LineBits {
			s.seen = append(s.seen, c)
		}
	}
	return true
}

// ClearWD releases all WD entries of a line and returns how many were held.
// byCorrection attributes the release for statistics: true when an explicit
// correction write cleared the cells, false when a normal data write
// superseded them (§4.2 "a normal write operation clears the accumulated WD
// errors in ECP").
func (t *Table) ClearWD(a pcm.LineAddr, byCorrection bool) int {
	s := t.lookup(a)
	if s == nil || len(s.wd) == 0 {
		return 0
	}
	n := len(s.wd)
	s.wd = s.wd[:0]
	if byCorrection {
		t.Stats.ClearedByCorrect += uint64(n)
		t.flushOcc.Observe(uint64(s.hard + n))
	} else {
		t.Stats.ClearedByWrite += uint64(n)
	}
	// Invalidating entries writes their valid bits in the ECP chip.
	t.Stats.ECPBitWrites += uint64(n)
	return n
}

// CorrectionMask returns a mask of the line's recorded WD cells; applying
// RESET to exactly these cells (forcing them to '0') heals the line.
func (t *Table) CorrectionMask(a pcm.LineAddr) pcm.Mask {
	var m pcm.Mask
	if s := t.lookup(a); s != nil {
		for _, b := range s.wd {
			m.SetBit(int(b))
		}
	}
	return m
}

// CorrectRead returns the ECP-corrected view of raw line data: every
// recorded WD cell is forced to its true value '0'. Hard-error cells are
// abstract in this model and left untouched.
func (t *Table) CorrectRead(a pcm.LineAddr, raw pcm.Line) pcm.Line {
	s := t.lookup(a)
	if s == nil || len(s.wd) == 0 {
		return raw
	}
	for _, b := range s.wd {
		raw.SetBit(int(b), 0)
	}
	return raw
}

func (s *lineState) has(c uint16) bool { return containsU16(s.wd, c) }

func containsU16(xs []uint16, c uint16) bool {
	for _, x := range xs {
		if x == c {
			return true
		}
	}
	return false
}
