// Package vm implements the OS-side plumbing of (n:m)-Alloc (§4.4, Fig. 9):
// per-process page tables whose entries carry the allocator tag, a TLB that
// caches translations (tag included), and demand paging backed by the
// WD-aware buddy allocator. The tag travels virtual address → page table →
// TLB → memory controller, which uses it to decide which bit-line
// neighbours of a write need verification.
package vm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
)

// Translation is one page-table / TLB entry payload.
type Translation struct {
	Frame pcm.PageAddr
	Tag   alloc.Tag
}

// PageTable maps a process's virtual pages to physical frames. It is an
// open-addressed, linear-probing table of power-of-two size whose slots hold
// the key beside its translation, so a walk usually touches one cache line.
// It stays at most 7/8 full, which keeps it no larger per mapped page than
// a Go map of the same pages (TestPageTableFootprint).
type PageTable struct {
	slots []ptSlot // empty, or a power-of-two count
	shift uint     // 64 - log2(len(slots)): hash bits select the home slot
	n     int      // occupied slots
	// top holds the translation of vpage math.MaxUint64, the one page the
	// slot key encoding cannot store.
	top    Translation
	hasTop bool
}

// ptSlot is one page-table slot; key is vpage+1, and 0 marks it empty.
type ptSlot struct {
	key uint64
	tr  Translation
}

// ptMinSlots is the size of a table's first allocation.
const ptMinSlots = 16

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// home returns the first slot a key probes: Fibonacci hashing spreads runs
// of consecutive pages over the table.
func (pt *PageTable) home(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> pt.shift }

// Lookup returns the translation of a virtual page.
func (pt *PageTable) Lookup(vpage uint64) (Translation, bool) {
	key := vpage + 1
	if key == 0 {
		return pt.top, pt.hasTop
	}
	if len(pt.slots) == 0 {
		return Translation{}, false
	}
	s := pt.slot(key)
	return s.tr, s.key != 0
}

// Map installs a translation.
func (pt *PageTable) Map(vpage uint64, tr Translation) {
	key := vpage + 1
	if key == 0 {
		pt.top, pt.hasTop = tr, true
		return
	}
	if (pt.n+1)*8 > len(pt.slots)*7 {
		pt.grow(max(2*len(pt.slots), ptMinSlots))
	}
	if pt.put(key, tr) {
		pt.n++
	}
}

// slot returns the slot holding key, or the empty slot where key belongs;
// an empty slot holds the zero Translation. The table must have a free slot.
func (pt *PageTable) slot(key uint64) *ptSlot {
	mask := uint64(len(pt.slots) - 1)
	for i := pt.home(key); ; i = (i + 1) & mask {
		if s := &pt.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// put stores a translation under key and reports whether it took a new
// slot.
func (pt *PageTable) put(key uint64, tr Translation) bool {
	s := pt.slot(key)
	added := s.key == 0
	*s = ptSlot{key: key, tr: tr}
	return added
}

// grow rehashes the table into size slots, a power of two.
func (pt *PageTable) grow(size int) {
	old := pt.slots
	pt.slots = make([]ptSlot, size)
	pt.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			pt.put(s.key, s.tr)
		}
	}
}

// Len returns the number of mapped pages.
func (pt *PageTable) Len() int {
	if pt.hasTop {
		return pt.n + 1
	}
	return pt.n
}

// pages returns every mapped virtual page in ascending order.
func (pt *PageTable) pages() []uint64 {
	vp := make([]uint64, 0, pt.Len())
	for _, s := range pt.slots {
		if s.key != 0 {
			vp = append(vp, s.key-1)
		}
	}
	slices.Sort(vp)
	if pt.hasTop {
		vp = append(vp, math.MaxUint64)
	}
	return vp
}

// TLB is a small set-associative translation cache. Each entry carries the
// (n:m) allocator tag so the memory controller receives it with every
// request (Fig. 9).
type TLB struct {
	sets  int
	mask  uint64 // sets-1: the set index is vpage&mask
	assoc int

	vpage []uint64
	data  []Translation
	valid []bool
	stamp []uint64
	clock uint64

	Hits, Misses uint64
}

// NewTLB builds a TLB with the given entry count and associativity; entries
// must be a power-of-two multiple of assoc.
func NewTLB(entries, assoc int) (*TLB, error) {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("vm: bad TLB geometry %d/%d", entries, assoc)
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("vm: TLB set count %d not a power of two", sets)
	}
	return &TLB{
		sets:  sets,
		mask:  uint64(sets - 1),
		assoc: assoc,
		vpage: make([]uint64, entries),
		data:  make([]Translation, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
	}, nil
}

// Lookup probes the TLB.
func (t *TLB) Lookup(vpage uint64) (Translation, bool) {
	t.clock++
	base := int(vpage&t.mask) * t.assoc
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if t.valid[i] && t.vpage[i] == vpage {
			t.Hits++
			t.stamp[i] = t.clock
			return t.data[i], true
		}
	}
	t.Misses++
	return Translation{}, false
}

// Insert fills the TLB after a page-table walk, evicting LRU.
func (t *TLB) Insert(vpage uint64, tr Translation) {
	t.clock++
	base := int(vpage&t.mask) * t.assoc
	victim := base
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if !t.valid[i] {
			victim = i
			break
		}
		if t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	t.vpage[victim] = vpage
	t.data[victim] = tr
	t.valid[victim] = true
	t.stamp[victim] = t.clock
}

// AddressSpace is one process: a page table, a TLB, and demand paging from
// the shared buddy allocator under the process's allocator tag. Per §5.3 we
// assume one application uses one (n:m) allocator for all of its memory.
type AddressSpace struct {
	PT  *PageTable
	TLB *TLB

	allocator *alloc.Allocator
	tag       alloc.Tag
	chunk     int // pages requested per demand-paging refill

	pool []pcm.PageAddr

	// Faults counts demand-paging events (first touches).
	Faults uint64
}

// NewAddressSpace builds a process address space. chunkPages is the growth
// granularity of demand paging (a strip's worth by default when 0).
func NewAddressSpace(a *alloc.Allocator, tag alloc.Tag, chunkPages int) (*AddressSpace, error) {
	if !tag.Valid() {
		return nil, fmt.Errorf("vm: invalid tag %v", tag)
	}
	if chunkPages <= 0 {
		chunkPages = a.StripPages()
	}
	tlb, err := NewTLB(64, 4)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{
		PT:        NewPageTable(),
		TLB:       tlb,
		allocator: a,
		tag:       tag,
		chunk:     chunkPages,
	}, nil
}

// Tag returns the process's allocator tag.
func (as *AddressSpace) Tag() alloc.Tag { return as.tag }

// Translate resolves a virtual page, faulting in a fresh frame on first
// touch. tlbHit reports whether the TLB already held the translation.
func (as *AddressSpace) Translate(vpage uint64) (Translation, bool, error) {
	if tr, ok := as.TLB.Lookup(vpage); ok {
		return tr, true, nil
	}
	tr, ok := as.PT.Lookup(vpage)
	if !ok {
		frame, err := as.fault()
		if err != nil {
			return Translation{}, false, err
		}
		tr = Translation{Frame: frame, Tag: as.tag}
		as.PT.Map(vpage, tr)
	}
	as.TLB.Insert(vpage, tr)
	return tr, false, nil
}

// fault services a demand-paging miss from the pool, refilling it from the
// buddy allocator as needed.
func (as *AddressSpace) fault() (pcm.PageAddr, error) {
	as.Faults++
	if len(as.pool) == 0 {
		b, err := as.allocator.Alloc(as.chunk, as.tag)
		if err != nil {
			return 0, fmt.Errorf("vm: demand paging: %w", err)
		}
		as.pool = as.allocator.Usable(b)
	}
	frame := as.pool[0]
	as.pool = as.pool[1:]
	return frame, nil
}

// MappedPages returns the number of resident pages.
func (as *AddressSpace) MappedPages() int { return as.PT.Len() }
