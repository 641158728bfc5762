package metrics

import (
	"testing"

	"sdpcm/internal/snap"
)

// TestDecodeRejectsInconsistentTrace: a ring holds every emitted event
// until it is full and never more events than were emitted.
func TestDecodeRejectsInconsistentTrace(t *testing.T) {
	const capacity = 4
	for _, tc := range []struct {
		name       string
		next, held uint64
	}{
		{"valid partial", 2, 2},
		{"valid wrapped", 9, capacity},
		{"more held than emitted", 1, 2},
		{"partial ring that dropped events", 3, 2},
	} {
		e := snap.NewEncoder(1)
		e.Begin("metrics.registry")
		e.Uvarint(0) // histograms
		e.Int(capacity)
		e.U64(tc.next)
		e.Uvarint(tc.held)
		for i := range tc.held {
			e.U64(i) // seq
			e.U64(i) // time
			e.Uvarint(0)
			e.U64(0)
			e.U64(0)
			e.U64(0)
		}
		e.End()
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		r := New()
		r.EnableTrace(capacity)
		err = r.DecodeState(d)
		if valid := tc.name[:5] == "valid"; (err == nil) != valid {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}

// TestDecodeRefusesUnregisteredInstruments: a checkpoint's registry section
// restores exactly the histograms this run registered: a histogram this run
// does not have, one it lacks or one named twice is refused rather than
// created — it would otherwise surface in the run's snapshot.
func TestDecodeRefusesUnregisteredInstruments(t *testing.T) {
	bounds := []uint64{10, 100}
	encode := func(hists []string) []byte {
		e := snap.NewEncoder(1)
		e.Begin("metrics.registry")
		e.Uvarint(uint64(len(hists)))
		for _, n := range hists {
			e.String(n)
			e.Uvarint(uint64(len(bounds)))
			for _, b := range bounds {
				e.U64(b)
			}
			for range len(bounds) + 1 {
				e.U64(1)
			}
			e.U64(55) // sum
			e.U64(3)  // count
		}
		e.End() // no trace
		return e.Finish()
	}
	for _, tc := range []struct {
		name  string
		hists []string
		valid bool
	}{
		{name: "exact set", hists: []string{"a", "b"}, valid: true},
		{name: "unregistered histogram", hists: []string{"a", "b", "extra"}},
		{name: "histogram swapped for another", hists: []string{"a", "extra"}},
		{name: "missing histogram", hists: []string{"a"}},
		{name: "repeated histogram", hists: []string{"a", "a"}},
	} {
		r := New()
		r.Histogram("a", bounds)
		r.Histogram("b", bounds)
		d, err := snap.NewDecoder(encode(tc.hists), 1)
		if err != nil {
			t.Fatal(err)
		}
		err = r.DecodeState(d)
		if (err == nil) != tc.valid {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
			continue
		}
		if !tc.valid {
			continue
		}
		s := r.Snapshot()
		if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 2 {
			t.Errorf("%s: snapshot after restore = %+v, want only histograms a and b", tc.name, s)
		}
		if hp, _ := s.Histogram("b"); hp.Count != 3 || hp.Sum != 55 {
			t.Errorf("%s: restored histogram b = %+v", tc.name, hp)
		}
	}
}
