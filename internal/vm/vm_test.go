package vm

import (
	"math/rand/v2"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
)

func newAlloc(t *testing.T) *alloc.Allocator {
	t.Helper()
	a, err := alloc.New(2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTranslateDemandPaging(t *testing.T) {
	a := newAlloc(t)
	as, err := NewAddressSpace(a, alloc.Tag11, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr1, hit, err := as.Translate(100)
	if err != nil || hit {
		t.Fatalf("first touch: hit=%v err=%v", hit, err)
	}
	// Same page translates identically and now hits the TLB.
	tr2, hit, err := as.Translate(100)
	if err != nil || !hit || tr1 != tr2 {
		t.Fatalf("second touch: tr=%+v/%+v hit=%v err=%v", tr1, tr2, hit, err)
	}
	if as.Faults != 1 || as.MappedPages() != 1 {
		t.Fatalf("faults=%d mapped=%d", as.Faults, as.MappedPages())
	}
}

func TestDistinctVPagesGetDistinctFrames(t *testing.T) {
	a := newAlloc(t)
	as, _ := NewAddressSpace(a, alloc.Tag11, 0)
	seen := map[pcm.PageAddr]bool{}
	for v := uint64(0); v < 200; v++ {
		tr, _, err := as.Translate(v)
		if err != nil {
			t.Fatal(err)
		}
		if seen[tr.Frame] {
			t.Fatalf("frame %d mapped twice", tr.Frame)
		}
		seen[tr.Frame] = true
	}
}

func TestTagTravelsWithTranslation(t *testing.T) {
	a := newAlloc(t)
	as, _ := NewAddressSpace(a, alloc.Tag23, 0)
	tr, _, err := as.Translate(5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tag != alloc.Tag23 {
		t.Fatalf("translation tag = %v, want (2:3)", tr.Tag)
	}
	// The frame must be in an in-use strip of a (2:3)-owned region.
	if !a.PageInUse(tr.Frame) {
		t.Fatal("frame is in a no-use strip")
	}
	if a.RegionTag(tr.Frame) != alloc.Tag23 {
		t.Fatal("frame's region not owned by (2:3)")
	}
}

func TestNMFramesAvoidNoUseStrips(t *testing.T) {
	a := newAlloc(t)
	as, _ := NewAddressSpace(a, alloc.Tag12, 0)
	for v := uint64(0); v < 300; v++ {
		tr, _, err := as.Translate(v)
		if err != nil {
			t.Fatal(err)
		}
		if a.StripIndexInRegion(tr.Frame)%2 != 0 {
			t.Fatalf("vpage %d mapped to no-use strip frame %d", v, tr.Frame)
		}
	}
}

func TestInvalidTagRejected(t *testing.T) {
	a := newAlloc(t)
	if _, err := NewAddressSpace(a, alloc.Tag{N: 0, M: 2}, 0); err == nil {
		t.Fatal("invalid tag must be rejected")
	}
}

func TestOutOfMemoryPropagates(t *testing.T) {
	a := newAlloc(t)
	as, _ := NewAddressSpace(a, alloc.Tag11, 128)
	var err error
	for v := uint64(0); v < 3000; v++ {
		if _, _, err = as.Translate(v); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("exhausting memory must surface an error")
	}
}

func TestTLBGeometryValidation(t *testing.T) {
	if _, err := NewTLB(0, 4); err == nil {
		t.Error("zero entries must be rejected")
	}
	if _, err := NewTLB(63, 4); err == nil {
		t.Error("entries not multiple of assoc must be rejected")
	}
	if _, err := NewTLB(24, 4); err == nil {
		t.Error("non-power-of-two sets must be rejected")
	}
}

func TestTLBLRU(t *testing.T) {
	tlb, err := NewTLB(4, 4) // one set, 4 ways
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 4; v++ {
		tlb.Insert(v, Translation{Frame: pcm.PageAddr(v)})
	}
	tlb.Lookup(0) // 0 is MRU
	tlb.Insert(9, Translation{Frame: 9})
	if _, ok := tlb.Lookup(0); !ok {
		t.Fatal("MRU entry must survive")
	}
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("LRU entry must have been evicted")
	}
}

func TestTLBStats(t *testing.T) {
	a := newAlloc(t)
	as, _ := NewAddressSpace(a, alloc.Tag11, 0)
	for i := 0; i < 10; i++ {
		as.Translate(7)
	}
	if as.TLB.Hits != 9 || as.TLB.Misses != 1 {
		t.Fatalf("TLB stats = %d/%d, want 9/1", as.TLB.Hits, as.TLB.Misses)
	}
}

// BenchmarkTranslateMiss measures translations of eight bwaves-sized address
// spaces (3072 pages each, every page mapped) in an interleaved random
// order, so almost every call misses the 64-entry TLB: the page-table walk
// plus the TLB fill.
func BenchmarkTranslateMiss(b *testing.B) {
	const spaces, pages = 8, 3072
	a, err := alloc.New(1<<16, 1024)
	if err != nil {
		b.Fatal(err)
	}
	as := make([]*AddressSpace, spaces)
	for i := range as {
		if as[i], err = NewAddressSpace(a, alloc.Tag11, 0); err != nil {
			b.Fatal(err)
		}
		for v := uint64(0); v < pages; v++ {
			if _, _, err := as[i].Translate(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	r := rand.New(rand.NewPCG(3, 4))
	seq := make([]uint64, 1<<14)
	for i := range seq {
		seq[i] = r.Uint64N(pages)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := as[i%spaces].Translate(seq[i%len(seq)]); err != nil {
			b.Fatal(err)
		}
	}
}
