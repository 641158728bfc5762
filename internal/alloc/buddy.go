package alloc

import (
	"errors"
	"fmt"
	"sort"

	"sdpcm/internal/pcm"
)

// ErrOutOfMemory is returned when no block can satisfy a request.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// Block is an allocation: a naturally aligned, power-of-two-page region
// owned by one allocator tag. Under an (n:m) tag with n≠m, some pages of
// the block may lie in no-use strips; Allocator.Usable enumerates the data
// pages.
type Block struct {
	Start pcm.PageAddr
	Order int
	Tag   Tag
}

// Pages returns the block's total page span.
func (b Block) Pages() int { return 1 << b.Order }

// Stats summarises allocator state.
type Stats struct {
	TotalPages     int
	FreePages      map[Tag]int // free-list pages per tag (incl. internal no-use)
	AllocatedPages int         // pages inside live blocks (incl. internal no-use)
	FragmentPages  int         // external no-use fragments awaiting reclaim
	OwnedRegions   map[Tag]int // marking regions currently owned per (n:m) tag
}

// Allocator is the WD-aware buddy system.
type Allocator struct {
	totalPages  int
	regionPages int // marking-region span ("64MB" in the paper)
	regionOrder int
	stripPages  int // device strip width in pages (the module's bank count)
	stripOrder  int
	maxOrder    int

	free      map[Tag][][]int // free[tag][order] = sorted block starts
	fragments map[Tag]map[int]bool
	allocated map[int]Block
	owner     map[int]Tag // region start -> (n:m) tag owning it
}

// New builds an allocator over totalPages of physical memory with the given
// marking-region size. totalPages must be a positive multiple of
// regionPages; regionPages must be a power of two and at least two strips
// (so marking is meaningful).
func New(totalPages, regionPages int) (*Allocator, error) {
	return NewWithStrip(totalPages, regionPages, StripPages)
}

// NewWithStrip builds an allocator whose device strip is stripPages wide —
// the bank count of the module it allocates for. New uses the default
// 16-bank strip; multi-module topologies size each module's allocator to
// its own geometry.
func NewWithStrip(totalPages, regionPages, stripPages int) (*Allocator, error) {
	if stripPages < 1 || stripPages&(stripPages-1) != 0 {
		return nil, fmt.Errorf("alloc: stripPages %d must be a power of two", stripPages)
	}
	if regionPages < 2*stripPages || regionPages&(regionPages-1) != 0 {
		return nil, fmt.Errorf("alloc: regionPages %d must be a power of two >= %d", regionPages, 2*stripPages)
	}
	if totalPages <= 0 || totalPages%regionPages != 0 {
		return nil, fmt.Errorf("alloc: totalPages %d must be a positive multiple of regionPages %d", totalPages, regionPages)
	}
	a := &Allocator{
		totalPages:  totalPages,
		regionPages: regionPages,
		regionOrder: log2(regionPages),
		stripPages:  stripPages,
		stripOrder:  log2(stripPages),
		maxOrder:    log2ceil(totalPages),
		free:        make(map[Tag][][]int),
		fragments:   make(map[Tag]map[int]bool),
		allocated:   make(map[int]Block),
		owner:       make(map[int]Tag),
	}
	// Seed Free-(1:1) with region-order blocks; insertion coalesces upward.
	for s := 0; s < totalPages; s += regionPages {
		a.insert(Tag11, s, a.regionOrder)
	}
	return a, nil
}

// RegionPages returns the marking-region span in pages.
func (a *Allocator) RegionPages() int { return a.regionPages }

// StripPages returns the device strip width in pages.
func (a *Allocator) StripPages() int { return a.stripPages }

// StripsPerRegion returns the number of strips in one marking region.
func (a *Allocator) StripsPerRegion() int { return a.regionPages / a.stripPages }

func log2(x int) int {
	n := 0
	for 1<<n < x {
		n++
	}
	return n
}

func log2ceil(x int) int { return log2(x) }

// lists returns (lazily creating) the free-list array of a tag.
func (a *Allocator) lists(t Tag) [][]int {
	l := a.free[t]
	if l == nil {
		l = make([][]int, a.maxOrder+1)
		a.free[t] = l
	}
	return l
}

// frags returns (lazily creating) the external-fragment set of a tag.
func (a *Allocator) frags(t Tag) map[int]bool {
	f := a.fragments[t]
	if f == nil {
		f = make(map[int]bool)
		a.fragments[t] = f
	}
	return f
}

// usablePages counts the data pages of block [start, start+2^order) under
// tag marking.
func (a *Allocator) usablePages(t Tag, start, order int) int {
	if t.N == t.M {
		return 1 << order
	}
	span := 1 << order
	if order <= a.stripOrder {
		// Within one strip: all or nothing.
		if t.StripInUse(a.stripIndex(start)) {
			return span
		}
		return 0
	}
	firstStrip := a.stripIndex(start)
	return t.UsableStripsPer(firstStrip, span/a.stripPages) * a.stripPages
}

// stripIndex returns the strip index of a page within its marking region.
func (a *Allocator) stripIndex(page int) int {
	return (page % a.regionPages) / a.stripPages
}

// StripIndexInRegion exposes stripIndex for the memory controller, which
// needs the written page's strip position to apply Tag.VerifyNeighbors.
func (a *Allocator) StripIndexInRegion(p pcm.PageAddr) int { return a.stripIndex(int(p)) }

// PageInUse reports whether a physical page may hold data: pages inside a
// region owned by an (n:m) allocator follow its marking; everything else is
// usable.
func (a *Allocator) PageInUse(p pcm.PageAddr) bool {
	t, ok := a.owner[int(p)/a.regionPages*a.regionPages]
	if !ok {
		return true
	}
	return t.StripInUse(a.stripIndex(int(p)))
}

// RegionTag returns the (n:m) tag owning the page's marking region, or
// Tag11 when the region is unowned.
func (a *Allocator) RegionTag(p pcm.PageAddr) Tag {
	if t, ok := a.owner[int(p)/a.regionPages*a.regionPages]; ok {
		return t
	}
	return Tag11
}

// removeFromList deletes start from the tag's order list; reports success.
func (a *Allocator) removeFromList(t Tag, order, start int) bool {
	l := a.lists(t)[order]
	i := sort.SearchInts(l, start)
	if i < len(l) && l[i] == start {
		a.lists(t)[order] = append(l[:i], l[i+1:]...)
		return true
	}
	return false
}

func (a *Allocator) pushToList(t Tag, order, start int) {
	l := a.lists(t)[order]
	i := sort.SearchInts(l, start)
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = start
	a.lists(t)[order] = l
}

// insert frees a block into a tag's lists with buddy coalescing. Order-4
// no-use strips coalesce through the fragment set; a fully re-formed region
// owned by an (n:m) tag is handed back to Free-(1:1) (§4.4 "return its 64MB
// or bigger blocks to (1:1)-Alloc").
func (a *Allocator) insert(t Tag, start, order int) {
	for {
		if t != Tag11 && order >= a.regionOrder {
			// The block covers whole marking regions: return them to
			// Free-(1:1) and keep coalescing there.
			for r := start; r < start+(1<<order); r += a.regionPages {
				delete(a.owner, r)
			}
			t = Tag11
		}
		if order >= a.maxOrder {
			break
		}
		buddy := start ^ (1 << order)
		if buddy >= a.totalPages {
			break
		}
		if order == a.stripOrder && t.N != t.M && a.frags(t)[buddy] {
			delete(a.frags(t), buddy)
		} else if !a.removeFromList(t, order, buddy) {
			break
		}
		if buddy < start {
			start = buddy
		}
		order++
	}
	a.pushToList(t, order, start)
}

// take removes and returns a block of at least `order` whose usable pages
// cover `request`, splitting greedily. It does not acquire new regions.
func (a *Allocator) take(t Tag, order, request int) (int, int, bool) {
	for o := order; o <= a.maxOrder; o++ {
		for _, start := range a.lists(t)[o] {
			if a.usablePages(t, start, o) >= request {
				a.removeFromList(t, o, start)
				s, fo := a.splitTo(t, start, o, order, request)
				return s, fo, true
			}
		}
	}
	return 0, 0, false
}

// splitTo splits a block down toward targetOrder while a half still covers
// the request; the untaken half is linked (or becomes a no-use fragment at
// strip order). Returns the final block.
func (a *Allocator) splitTo(t Tag, start, order, targetOrder, request int) (int, int) {
	for order > targetOrder {
		half := 1 << (order - 1)
		lo, hi := start, start+half
		loU, hiU := a.usablePages(t, lo, order-1), a.usablePages(t, hi, order-1)
		var keep, other, otherU int
		switch {
		case loU >= request && (hiU < request || loU <= hiU):
			keep, other, otherU = lo, hi, hiU
		case hiU >= request:
			keep, other, otherU = hi, lo, loU
		default:
			// Neither half alone covers the request: stop here.
			return start, order
		}
		a.release(t, other, order-1, otherU)
		start, order = keep, order-1
	}
	return start, order
}

// release links a split-off half to the free lists, or parks a no-use strip
// as an external fragment.
func (a *Allocator) release(t Tag, start, order, usable int) {
	if t.N != t.M && order == a.stripOrder && usable == 0 {
		a.frags(t)[start] = true
		return
	}
	if t.N != t.M && order < a.stripOrder {
		// Sub-strip blocks only exist inside in-use strips; a no-use one
		// would be a bug upstream.
		if usable == 0 {
			panic("alloc: no-use sub-strip block escaped marking")
		}
	}
	a.insert(t, start, order)
}

// Alloc returns a block whose usable pages number at least `pages`. For
// n≠m tags, requests of a strip or more are size-adjusted the way §4.4
// describes (a 32-page request under (1:2) allocates a 64-page block).
func (a *Allocator) Alloc(pages int, t Tag) (Block, error) {
	if !t.Valid() {
		return Block{}, fmt.Errorf("alloc: invalid tag %v", t)
	}
	if pages <= 0 {
		return Block{}, fmt.Errorf("alloc: non-positive request %d", pages)
	}
	order := log2ceil(pages)
	if t.N != t.M && pages >= a.stripPages {
		// Strip-sized and larger requests are size-adjusted for the
		// capacity lost to no-use strips (§4.4: a 16-page request under a
		// n≠m allocator is always adjusted to 32 pages). Sub-strip requests
		// are serviced directly from in-use strips.
		adjusted := (pages*t.M + t.N - 1) / t.N
		order = log2ceil(adjusted)
	}
	if order > a.maxOrder {
		return Block{}, ErrOutOfMemory
	}
	start, gotOrder, ok := a.take(t, order, pages)
	if !ok && t.N != t.M {
		// Acquire marking regions from Free-(1:1) and retry, growing the
		// acquisition when alignment makes a single block's usable pages
		// fall short of the request.
		acq := order
		if acq < a.regionOrder {
			acq = a.regionOrder
		}
		for ; !ok && acq <= a.maxOrder; acq++ {
			rStart, rOrder, got := a.take(Tag11, acq, 1<<acq)
			if !got {
				continue
			}
			for r := rStart; r < rStart+(1<<rOrder); r += a.regionPages {
				a.owner[r] = t
			}
			// Push directly: insert would hand the region-sized block
			// straight back to Free-(1:1).
			a.pushToList(t, rOrder, rStart)
			start, gotOrder, ok = a.take(t, order, pages)
		}
		if !ok {
			a.reclaimRegions(t)
			return Block{}, ErrOutOfMemory
		}
	}
	if !ok {
		return Block{}, ErrOutOfMemory
	}
	b := Block{Start: pcm.PageAddr(start), Order: gotOrder, Tag: t}
	a.allocated[start] = b
	return b, nil
}

// Free returns a block to its allocator. Freeing an unknown or mismatched
// block is an error.
func (a *Allocator) Free(b Block) error {
	got, ok := a.allocated[int(b.Start)]
	if !ok {
		return fmt.Errorf("alloc: freeing unallocated block at %d", b.Start)
	}
	if got != b {
		return fmt.Errorf("alloc: block mismatch at %d: allocated %+v, freeing %+v", b.Start, got, b)
	}
	delete(a.allocated, int(b.Start))
	a.insert(b.Tag, int(b.Start), b.Order)
	return nil
}

// reclaimRegions hands any fully-free region-sized blocks of a tag back to
// Free-(1:1); called when an over-eager acquisition could not satisfy its
// request.
func (a *Allocator) reclaimRegions(t Tag) {
	for o := a.regionOrder; o <= a.maxOrder; o++ {
		starts := append([]int(nil), a.lists(t)[o]...)
		for _, s := range starts {
			if a.removeFromList(t, o, s) {
				a.insert(t, s, o)
			}
		}
	}
}

// Usable enumerates the data pages of a block in ascending order.
func (a *Allocator) Usable(b Block) []pcm.PageAddr {
	out := make([]pcm.PageAddr, 0, 1<<b.Order)
	for p := int(b.Start); p < int(b.Start)+(1<<b.Order); p++ {
		if b.Tag.N == b.Tag.M || b.Tag.StripInUse(a.stripIndex(p)) {
			out = append(out, pcm.PageAddr(p))
		}
	}
	return out
}

// DMARanges returns the physically contiguous usable page runs of a block,
// for DMA engines that must skip no-use strips. Per §4.4, only (1:1) and
// (1:2) allocations support DMA.
func (a *Allocator) DMARanges(b Block) ([][2]pcm.PageAddr, error) {
	if b.Tag != Tag11 && b.Tag != Tag12 {
		return nil, fmt.Errorf("alloc: DMA supports only (1:1) and (1:2), got %v", b.Tag)
	}
	usable := a.Usable(b)
	var out [][2]pcm.PageAddr
	for i := 0; i < len(usable); {
		j := i
		for j+1 < len(usable) && usable[j+1] == usable[j]+1 {
			j++
		}
		out = append(out, [2]pcm.PageAddr{usable[i], usable[j]})
		i = j + 1
	}
	return out, nil
}

// Snapshot computes current statistics.
func (a *Allocator) Snapshot() Stats {
	st := Stats{
		TotalPages:   a.totalPages,
		FreePages:    make(map[Tag]int),
		OwnedRegions: make(map[Tag]int),
	}
	for t, lists := range a.free {
		for o, l := range lists {
			st.FreePages[t] += len(l) << o
		}
	}
	for _, f := range a.fragments {
		st.FragmentPages += len(f) * a.stripPages
	}
	for _, b := range a.allocated {
		st.AllocatedPages += b.Pages()
	}
	for _, t := range a.owner {
		st.OwnedRegions[t]++
	}
	return st
}

// checkConservation verifies the fundamental invariant: every page is in
// exactly one of {free lists, fragments, allocated blocks}. Exposed for
// tests via Conserved.
func (a *Allocator) Conserved() bool {
	st := a.Snapshot()
	sum := st.AllocatedPages + st.FragmentPages
	for _, f := range st.FreePages {
		sum += f
	}
	return sum == st.TotalPages
}
