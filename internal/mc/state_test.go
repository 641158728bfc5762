package mc

import (
	"errors"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// TestDecodeRejectsForeignQueueEntry: a queued write must target a line of
// the device in its own bank's queue, with the neighbour fields its address
// implies; anything else would steer a resumed drain off the device.
func TestDecodeRejectsForeignQueueEntry(t *testing.T) {
	r := newRig(t, baselineCfg())
	addr := pcm.LineOf(100, 0)
	r.c.Write(0, addr, lineWith(1))
	w := r.c.banks[r.c.geo.Locate(addr).Bank].wq[0]
	for _, tc := range []struct {
		name   string
		mutate func(w *writeEntry)
	}{
		{"valid", func(*writeEntry) {}},
		{"line off the device", func(w *writeEntry) { w.addr = pcm.LineAddr(r.d.Lines()) }},
		{"line of another bank", func(w *writeEntry) { w.addr = pcm.LineOf(101, 0) }},
		{"wrong neighbour", func(w *writeEntry) { w.top++ }},
	} {
		saved := *w
		tc.mutate(w)
		e := snap.NewEncoder(1)
		r.c.EncodeState(e)
		*w = saved
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		err = newRig(t, baselineCfg()).c.DecodeState(d)
		if (err == nil) != (tc.name == "valid") {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}

// TestDecodeRejectsOtherBankState: a controller bound to one bank refuses
// checkpointed codec state for a line of another bank, while an unbound
// controller (serving every bank) and one bound to the line's bank accept it.
func TestDecodeRejectsOtherBankState(t *testing.T) {
	r := newRig(t, baselineCfg())
	addr := pcm.LineOf(100, 0)
	r.c.Write(0, addr, lineWith(1))
	r.c.Flush(0) // the DIN codec now holds the line's coding bits
	e := snap.NewEncoder(1)
	r.c.EncodeState(e)
	data := e.Finish()
	home := r.c.geo.Locate(addr).Bank
	for _, tc := range []struct {
		name  string
		bank  int // -1: unbound
		valid bool
	}{
		{"unbound", -1, true},
		{"bound to the line's bank", home, true},
		{"bound to another bank", (home + 1) % r.d.Banks(), false},
	} {
		d, err := snap.NewDecoder(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := newRig(t, baselineCfg()).c
		if tc.bank >= 0 {
			c.BindBank(tc.bank)
		}
		err = c.DecodeState(d)
		var ie *snap.InvalidError
		if (err == nil) != tc.valid || (err != nil && !errors.As(err, &ie)) {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}
