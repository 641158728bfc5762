package vm

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the address space's mutable state: the page table
// (in ascending virtual-page order), the TLB arrays and clock, the
// demand-paging pool and the fault counter. The allocator
// reference, tag and chunk size are construction parameters.
func (as *AddressSpace) EncodeState(e *snap.Encoder) {
	e.Begin("vm.addrspace")

	vpages := as.PT.pages()
	e.Uvarint(uint64(len(vpages)))
	for _, v := range vpages {
		tr, _ := as.PT.Lookup(v)
		e.U64(v)
		e.U64(uint64(tr.Frame))
		e.Int(tr.Tag.N)
		e.Int(tr.Tag.M)
	}

	t := as.TLB
	e.Int(t.sets)
	e.Int(t.assoc)
	for i := range t.vpage {
		e.U64(t.vpage[i])
		e.U64(uint64(t.data[i].Frame))
		e.Int(t.data[i].Tag.N)
		e.Int(t.data[i].Tag.M)
		e.Bool(t.valid[i])
		e.U64(t.stamp[i])
	}
	e.U64(t.clock)
	e.U64(t.Hits)
	e.U64(t.Misses)

	e.Uvarint(uint64(len(as.pool)))
	for _, p := range as.pool {
		e.U64(uint64(p))
	}
	e.U64(as.Faults)
	e.End()
}

// DecodeState restores state written by EncodeState into an address space
// freshly constructed with the same tag and chunk size. Every frame must lie
// inside the allocator's memory and every tag be valid, so a corrupt file
// fails here instead of steering a later access off the device. Pages must
// ascend strictly, as EncodeState writes them: a repeated page would
// silently overwrite the earlier entry.
func (as *AddressSpace) DecodeState(d *snap.Decoder) error {
	d.Begin("vm.addrspace")
	pages := uint64(as.allocator.TotalPages())
	read := func() Translation {
		return Translation{Frame: pcm.PageAddr(d.U64()), Tag: alloc.Tag{N: d.Int(), M: d.Int()}}
	}
	bad := func(tr Translation) bool {
		return d.Err() == nil && (uint64(tr.Frame) >= pages || !tr.Tag.Valid())
	}

	n := d.Count()
	as.PT = NewPageTable()
	var prev uint64
	for i := 0; i < n && d.Err() == nil; i++ {
		v, tr := d.U64(), read()
		switch {
		case d.Err() != nil:
		case i > 0 && v <= prev:
			d.Invalid("vm: checkpoint page %d follows page %d (pages must ascend strictly)", v, prev)
		case bad(tr):
			d.Invalid("vm: checkpoint maps page %d to frame %d under tag %v (%d pages)", v, tr.Frame, tr.Tag, pages)
		default:
			as.PT.Map(v, tr)
		}
		prev = v
	}

	t := as.TLB
	if sets, assoc := d.Int(), d.Int(); d.Err() == nil && (sets != t.sets || assoc != t.assoc) {
		return fmt.Errorf("vm: checkpoint TLB geometry %d/%d does not match this run's %d/%d",
			sets, assoc, t.sets, t.assoc)
	}
	for i := range t.vpage {
		t.vpage[i] = d.U64()
		t.data[i] = read()
		t.valid[i] = d.Bool()
		t.stamp[i] = d.U64()
		if t.valid[i] && bad(t.data[i]) {
			d.Invalid("vm: checkpoint TLB entry %d maps frame %d under tag %v (%d pages)", i, t.data[i].Frame, t.data[i].Tag, pages)
		}
	}
	t.clock = d.U64()
	t.Hits = d.U64()
	t.Misses = d.U64()

	np := d.Count()
	as.pool = make([]pcm.PageAddr, 0, np)
	for i := 0; i < np && d.Err() == nil; i++ {
		f := d.U64()
		if d.Err() == nil && f >= pages {
			d.Invalid("vm: checkpoint pool frame %d outside %d pages", f, pages)
		}
		as.pool = append(as.pool, pcm.PageAddr(f))
	}
	as.Faults = d.U64()
	d.End()
	return d.Err()
}
