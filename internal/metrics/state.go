package metrics

import (
	"fmt"
	"sort"

	"sdpcm/internal/snap"
)

// EncodeState serializes the registry's histograms in name-sorted
// (deterministic) order and the event-ring contents (when the run traces
// events). Nil-safe: a disabled registry writes nothing. Whether the
// registry and its ring exist follows from the run's config, which the
// checkpoint identity pins.
func (r *Registry) EncodeState(e *snap.Encoder) {
	if r == nil {
		return
	}
	e.Begin("metrics.registry")
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		h := r.hists[n]
		e.String(n)
		e.Uvarint(uint64(len(h.bounds)))
		for _, b := range h.bounds {
			e.U64(b)
		}
		for _, c := range h.counts {
			e.U64(c)
		}
		e.U64(h.sum)
		e.U64(h.n)
	}

	if r.trace != nil {
		t := r.trace
		e.Int(cap(t.buf))
		e.U64(t.next)
		// Raw storage order, not emission order: ring positions are
		// addressed by next % cap, so the layout must survive verbatim.
		e.Uvarint(uint64(len(t.buf)))
		for _, ev := range t.buf {
			e.U64(ev.Seq)
			e.U64(ev.Time)
			e.Uvarint(uint64(ev.Kind))
			e.U64(ev.Addr)
			e.U64(ev.A)
			e.U64(ev.B)
		}
	}
	e.End()
}

// DecodeState restores the histograms and event ring written by
// EncodeState into a registry of the same configuration (a nil registry
// reads nothing). The restore is in place — Histogram handles held by
// already-instrumented components stay valid. The checkpoint must name
// exactly the histograms this run registered, with the same bounds: a
// decoded name this run does not publish would otherwise surface in its
// snapshot.
func (r *Registry) DecodeState(d *snap.Decoder) error {
	if r == nil {
		return d.Err()
	}
	d.Begin("metrics.registry")
	nh := d.Count()
	if d.Err() == nil && nh != len(r.hists) {
		return fmt.Errorf("metrics: checkpoint holds %d histograms, this run registered %d", nh, len(r.hists))
	}
	prev := ""
	for i := 0; i < nh && d.Err() == nil; i++ {
		name := d.String()
		h := r.hists[name]
		switch {
		case d.Err() != nil:
			return d.Err()
		case h == nil:
			return fmt.Errorf("metrics: checkpoint histogram %q is not registered in this run", name)
		case name <= prev:
			return fmt.Errorf("metrics: checkpoint histogram %q repeats or is out of order", name)
		}
		prev = name
		if nb := d.Count(); d.Err() == nil && nb != len(h.bounds) {
			return fmt.Errorf("metrics: checkpoint histogram %q has %d bounds, this run has %d", name, nb, len(h.bounds))
		}
		for _, b := range h.bounds {
			if v := d.U64(); d.Err() == nil && v != b {
				return fmt.Errorf("metrics: checkpoint histogram %q bounds differ from this run's", name)
			}
		}
		for j := range h.counts {
			h.counts[j] = d.U64()
		}
		h.sum = d.U64()
		h.n = d.U64()
	}

	if r.trace != nil && d.Err() == nil {
		t := r.trace
		if c := d.Int(); d.Err() == nil && c != cap(t.buf) {
			return fmt.Errorf("metrics: checkpoint trace capacity %d does not match this run's %d", c, cap(t.buf))
		}
		t.next = d.U64()
		n := d.Count()
		if d.Err() == nil && n > cap(t.buf) {
			return fmt.Errorf("metrics: checkpoint trace holds %d events, capacity is %d", n, cap(t.buf))
		}
		// A ring fills before it wraps: it holds every event emitted so far
		// until it is full, and never more than were emitted.
		if d.Err() == nil && (t.next < uint64(n) || (n < cap(t.buf) && t.next != uint64(n))) {
			return fmt.Errorf("metrics: checkpoint trace holds %d events after %d emitted", n, t.next)
		}
		t.buf = t.buf[:0]
		for i := 0; i < n && d.Err() == nil; i++ {
			t.buf = append(t.buf, Event{
				Seq:  d.U64(),
				Time: d.U64(),
				Kind: EventKind(d.Uvarint()),
				Addr: d.U64(),
				A:    d.U64(),
				B:    d.U64(),
			})
		}
	}
	d.End()
	return d.Err()
}
