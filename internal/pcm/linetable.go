package pcm

import (
	"cmp"
	"math"
	"slices"

	"sdpcm/internal/snap"
)

// LineTable is per-line state a controller subsystem keeps beside a device
// (a codec's coding bits, an ECP table's entry index): at most one uint32
// per line, stored in per-bank tables indexed by the line's resident slot
// (Device.Slot), with a presence bit per slot so a stored 0 is told apart
// from no entry. Put materializes the line; every other call leaves the
// device untouched. Only resident lines can hold an entry, which is free
// for the controller's state: a line is coded right before it is written,
// and WD errors are only recorded on a line a disturbance installed.
//
// Slots change only when the device's DecodeState restores it, so a table
// over a restored device must be rebuilt by address (DecodeEntries).
type LineTable struct {
	dev  *Device
	vals [][]uint32 // per bank, by slot; 0 where no entry
	set  [][]uint64 // per bank: bit s set = slot s holds an entry
	n    int        // entries
}

// standaloneRows is the row count of a standalone table's private device:
// the most a bank can hold under the store's 32-bit line index.
const standaloneRows = math.MaxUint32/LinesPerPage - 1

// NewLineTable returns an empty table keyed by dev's slots. A nil dev gives
// a standalone table, for a codec or ECP table driven without a controller:
// its slots come from a private zero-filled one-bank device spanning the
// whole 32-bit line range, which costs nothing until lines arrive.
func NewLineTable(dev *Device) LineTable {
	if dev == nil {
		var err error
		if dev, err = NewDevice(Config{Pages: standaloneRows, Banks: 1, ZeroFill: true}); err != nil {
			panic(err)
		}
	}
	return LineTable{dev: dev, vals: make([][]uint32, dev.Banks()), set: make([][]uint64, dev.Banks())}
}

// Reset drops every entry, keeping the table's device.
func (t *LineTable) Reset() { *t = NewLineTable(t.dev) }

// Device returns the device whose slots key the table.
func (t *LineTable) Device() *Device { return t.dev }

// Get returns a line's value, 0 when the line has no entry.
func (t *LineTable) Get(a LineAddr) uint32 {
	bank, s := t.dev.Slot(a)
	if v := t.vals[bank]; int(s) < len(v) {
		return v[s]
	}
	return 0
}

// Has reports whether a line has an entry.
func (t *LineTable) Has(a LineAddr) bool {
	bank, s := t.dev.Slot(a)
	set := t.set[bank]
	return s != 0 && int(s>>6) < len(set) && set[s>>6]&(1<<(s&63)) != 0
}

// Put sets a line's entry to v, materializing the line on the device. Like
// every device access, it panics on a line past the device.
func (t *LineTable) Put(a LineAddr, v uint32) {
	bank, s := t.dev.Materialize(a)
	vals := t.vals[bank]
	if int(s) >= len(vals) {
		vals = append(vals, make([]uint32, int(s)+1-len(vals))...)
		t.vals[bank] = vals
	}
	set := t.set[bank]
	if w := int(s >> 6); w >= len(set) {
		set = append(set, make([]uint64, w+1-len(set))...)
		t.set[bank] = set
	}
	if bit := uint64(1) << (s & 63); set[s>>6]&bit == 0 {
		set[s>>6] |= bit
		t.n++
	}
	vals[s] = v
}

// Len returns the number of entries.
func (t *LineTable) Len() int { return t.n }

// Bytes returns the capacity the table's per-bank tables hold, in bytes.
func (t *LineTable) Bytes() int {
	n := 24 * (cap(t.vals) + cap(t.set))
	for b := range t.vals {
		n += 4*cap(t.vals[b]) + 8*cap(t.set[b])
	}
	return n
}

// Visit calls fn for every entry in ascending address order.
func (t *LineTable) Visit(fn func(a LineAddr, v uint32)) {
	type entry struct {
		a LineAddr
		v uint32
	}
	es := make([]entry, 0, t.n)
	for b := range t.set {
		if len(t.set[b]) == 0 {
			continue
		}
		// Ascending within the bank; the banks interleave, hence the sort.
		t.dev.VisitResident(b, func(a LineAddr, s uint32) {
			if int(s>>6) < len(t.set[b]) && t.set[b][s>>6]&(1<<(s&63)) != 0 {
				es = append(es, entry{a, t.vals[b][s]})
			}
		})
	}
	slices.SortFunc(es, func(x, y entry) int { return cmp.Compare(x.a, y.a) })
	for _, e := range es {
		fn(e.a, e.v)
	}
}

// EncodeEntries writes the entry count, then every entry's address and
// value in ascending address order.
func (t *LineTable) EncodeEntries(e *snap.Encoder) {
	e.Uvarint(uint64(t.n))
	t.Visit(func(a LineAddr, v uint32) {
		e.U64(uint64(a))
		e.Uvarint(uint64(v))
	})
}

// DecodeEntries replaces the table's entries with what EncodeEntries wrote.
// name prefixes the errors; a line must satisfy owns (a line of the owning
// controller's device) and be resident on the already-restored device.
func (t *LineTable) DecodeEntries(d *snap.Decoder, name string, owns func(LineAddr) bool) {
	t.Reset()
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		a := LineAddr(d.U64())
		v := uint32(d.Uvarint())
		switch {
		case d.Err() != nil:
		case !owns(a):
			d.Invalid("%s: checkpoint codes line %d outside this controller's device", name, a)
		case !t.dev.Resident(a):
			d.Invalid("%s: checkpoint codes line %d, which the device does not hold", name, a)
		default:
			t.Put(a, v)
		}
	}
}
