package vm

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
)

// TestPageTableMatchesMap drives the page table and a Go map through the
// same random Map and Lookup calls — dense pages that collide and update,
// sparse pages that spread, and the edge pages 0 and math.MaxUint64 — and
// requires the same answers throughout, across every growth.
func TestPageTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	pt := NewPageTable()
	ref := map[uint64]Translation{}
	key := func() uint64 {
		switch r.IntN(8) {
		case 0:
			return []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}[r.IntN(4)]
		case 1, 2, 3:
			return r.Uint64N(4096)
		default:
			return r.Uint64()
		}
	}
	for i := 0; i < 60000; i++ {
		v := key()
		if r.IntN(2) == 0 {
			tr := Translation{Frame: pcm.PageAddr(r.Uint64N(1 << 21)), Tag: alloc.Tag23}
			pt.Map(v, tr)
			ref[v] = tr
		}
		got, ok := pt.Lookup(v)
		want, wok := ref[v]
		if got != want || ok != wok {
			t.Fatalf("op %d: Lookup(%d) = %+v, %t; map has %+v, %t", i, v, got, ok, want, wok)
		}
		if pt.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map holds %d", i, pt.Len(), len(ref))
		}
	}
	keys := make([]uint64, 0, len(ref))
	for v := range ref {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	if !slices.Equal(pt.pages(), keys) {
		t.Fatal("pages() is not the mapped pages in ascending order")
	}
	for _, v := range keys {
		if got, _ := pt.Lookup(v); got != ref[v] {
			t.Fatalf("final Lookup(%d) = %+v, want %+v", v, got, ref[v])
		}
	}
}

// TestPageTableFootprint pins the table's size against the Go map it
// replaced: at the page counts of the ROADMAP census footprints, with pages
// scattered over the address space, it holds no more heap per mapped page
// than a map built from the same pages.
func TestPageTableFootprint(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{311, 1428, 3072} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64N(1 << 40)
		}
		tr := Translation{Frame: 1, Tag: alloc.Tag11}
		table := heapBytes(t, func() any {
			pt := NewPageTable()
			for _, v := range keys {
				pt.Map(v, tr)
			}
			return pt
		})
		gomap := heapBytes(t, func() any {
			m := map[uint64]Translation{}
			for _, v := range keys {
				m[v] = tr
			}
			return m
		})
		t.Logf("%d pages: table %.1f B/page, map %.1f B/page", n, float64(table)/float64(n), float64(gomap)/float64(n))
		if table > gomap {
			t.Errorf("%d pages: table holds %d B, a map of the same pages %d B", n, table, gomap)
		}
	}
}

// heapBytes returns the live heap a value built by build holds: the least
// of three measurements, so a stray allocation elsewhere cannot inflate it.
func heapBytes(t *testing.T, build func() any) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		v := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(v)
		if after.HeapAlloc > before.HeapAlloc {
			least = min(least, after.HeapAlloc-before.HeapAlloc)
		}
	}
	if least == math.MaxUint64 {
		t.Fatal("the heap did not grow while building the value")
	}
	return least
}
