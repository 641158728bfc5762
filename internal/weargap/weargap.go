// Package weargap implements Start-Gap wear leveling (Qureshi et al.,
// MICRO'09 [20]), the line-level remapping scheme the paper's related work
// discusses (§7) and whose intra-row variant SD-PCM supports among data
// chips (§6.7).
//
// Start-Gap keeps one spare ("gap") line per region and two registers,
// Start and Gap. Every psi writes, the line just above the gap moves into
// the gap and the gap pointer walks down one slot; when the gap has walked
// the whole region, Start advances by one, completing a full rotation. The
// effect is a slowly rotating logical→physical mapping that spreads hot
// lines over the whole region at a cost of one extra line per region and
// one extra line-copy per psi writes.
//
// Relevance to SD-PCM: rotation changes which physical lines are bit-line
// neighbours of a hot line over time, so persistent aggressor/victim pairs
// dissolve — but it also means a no-use strip's isolation guarantee under
// (n:m)-Alloc would be violated if rotation crossed strip boundaries. The
// paper's design therefore confines wear leveling to *intra-row* rotation
// among data chips; this package provides the general region form plus the
// WD-safe intra-row variant, with the remapping algebra fully tested.
package weargap

import (
	"fmt"

	"sdpcm/internal/pcm"
)

// Leveler is a Start-Gap remapper over a region of n logical lines backed
// by n+1 physical slots.
type Leveler struct {
	n    int // logical lines
	psi  int // writes between gap movements
	wcnt int // writes since the last movement

	start int // rotation offset (0..n)
	gap   int // physical slot currently unused (0..n)

	// Moves counts gap movements (each is one line copy: read + write).
	Moves uint64
	// Rotations counts completed full rotations of the region.
	Rotations uint64
}

// New builds a leveler for n logical lines with gap period psi (the
// original paper uses psi=100).
func New(n, psi int) (*Leveler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("weargap: region size %d must be positive", n)
	}
	if psi <= 0 {
		return nil, fmt.Errorf("weargap: psi %d must be positive", psi)
	}
	return &Leveler{n: n, psi: psi, gap: n}, nil
}

// Lines returns the logical region size.
func (l *Leveler) Lines() int { return l.n }

// Slots returns the physical slot count (Lines + 1 spare).
func (l *Leveler) Slots() int { return l.n + 1 }

// Map translates a logical line (0..n-1) to its physical slot (0..n).
// The algebra is the MICRO'09 formulation: PA = (LA + Start) mod N, then
// skip the gap slot (PA >= Gap shifts down by one).
func (l *Leveler) Map(logical int) int {
	if logical < 0 || logical >= l.n {
		panic(fmt.Sprintf("weargap: logical line %d out of range [0,%d)", logical, l.n))
	}
	p := (logical + l.start) % l.n
	if p >= l.gap {
		p++
	}
	return p
}

// GapSlot returns the currently unused physical slot.
func (l *Leveler) GapSlot() int { return l.gap }

// OnWrite notifies the leveler of one line write. When the write counter
// reaches psi, the gap moves one slot down and the physical copy described
// by the returned move must be performed by the caller (reading From and
// writing its content to To — the gap's old position). moved is false when
// no movement happened this write.
type Move struct {
	From, To int // physical slots
}

// OnWrite advances the write counter and possibly moves the gap.
func (l *Leveler) OnWrite() (Move, bool) {
	l.wcnt++
	if l.wcnt < l.psi {
		return Move{}, false
	}
	l.wcnt = 0
	return l.MoveGap(), true
}

// MoveGap advances the gap one step unconditionally and returns the line
// copy to perform. Every movement (including the wrap from slot 0 back to
// slot N) copies one line: the content of the gap's new position moves into
// its old position.
func (l *Leveler) MoveGap() Move {
	l.Moves++
	oldGap := l.gap
	newGap := l.gap - 1
	if newGap < 0 {
		newGap = l.n
	}
	l.gap = newGap
	if l.gap == l.n {
		// The gap completed a full cycle: rotation advances by one.
		l.start = (l.start + 1) % l.n
		l.Rotations++
	}
	return Move{From: newGap, To: oldGap}
}

// IntraRow is the WD-safe variant used by SD-PCM (§6.7): each device row's
// 64 lines rotate independently, so remapping never crosses a strip (or
// row) boundary and the (n:m) no-use isolation guarantee is preserved. All
// rows share one write counter (a single hardware register); the row being
// written when the counter fires is the one whose gap advances.
type IntraRow struct {
	psi  int
	wcnt int                       // shared write counter (one register in hardware)
	rows map[pcm.PageAddr]*Leveler // by the page the device row holds

	// Moves aggregates gap-movement copies across all rows.
	Moves uint64
}

// NewIntraRow builds the intra-row wear-leveling layer.
func NewIntraRow(psi int) (*IntraRow, error) {
	if psi <= 0 {
		return nil, fmt.Errorf("weargap: psi %d must be positive", psi)
	}
	return &IntraRow{psi: psi, rows: make(map[pcm.PageAddr]*Leveler)}, nil
}

// leveler returns the leveler of the device row holding page p (a row holds
// exactly one page, whatever the bank layout).
func (w *IntraRow) leveler(p pcm.PageAddr) *Leveler {
	l := w.rows[p]
	if l == nil {
		// 64 logical slots per row would need a 65th spare; rows have
		// exactly 64, so the intra-row variant levels 63 logical lines
		// over 64 slots (one slot of each row is the rolling spare, a
		// 1/64 = 1.6% capacity cost).
		l, _ = New(pcm.LinesPerPage-1, w.psi)
		w.rows[p] = l
	}
	return l
}

// MapAddr translates a logical line address to its physical line address
// under the current rotation of its row.
func (w *IntraRow) MapAddr(a pcm.LineAddr) pcm.LineAddr {
	slot := a.Slot()
	if slot >= pcm.LinesPerPage-1 {
		// The last logical slot is reserved as spare capacity and never
		// allocated; identity-map defensively.
		return a
	}
	p := a.Page()
	return pcm.LineOf(p, w.leveler(p).Map(slot))
}

// OnWrite notifies the layer of a write to the (logical) address and
// performs any due gap movement on the device.
func (w *IntraRow) OnWrite(dev *pcm.Device, a pcm.LineAddr) {
	from, to, ok := w.NoteWrite(a)
	if !ok {
		return
	}
	content := dev.Peek(from)
	dev.Write(to, content, pcm.NormalWrite)
}

// NoteWrite advances the row's write counter and, when a gap movement is
// due, returns the physical copy (from → to) the caller must perform —
// through whatever data path it owns (the system simulator routes it
// through the memory controller so the copy stays coherent with queued
// writes and is itself subject to VnC).
// The write counter is shared across rows (a single hardware register);
// every psi writes, the gap of the row currently being written advances,
// so hot rows — the ones that need leveling — rotate fastest.
func (w *IntraRow) NoteWrite(a pcm.LineAddr) (from, to pcm.LineAddr, moved bool) {
	w.wcnt++
	if w.wcnt < w.psi {
		return 0, 0, false
	}
	w.wcnt = 0
	p := a.Page()
	mv := w.leveler(p).MoveGap()
	w.Moves++
	return pcm.LineOf(p, mv.From), pcm.LineOf(p, mv.To), true
}

// UsableSlots returns the number of allocatable line slots per row under
// intra-row leveling.
func (w *IntraRow) UsableSlots() int { return pcm.LinesPerPage - 1 }
