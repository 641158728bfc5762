package mc

import (
	"errors"
	"strings"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/din"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
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

// TestDecodeRejectsDisabledMechanismState: in-flight prereads exist only
// under PreRead and a bank mid-drain only under WriteCancel, so a controller
// without the flag refuses them instead of letting the preread and drain
// bookkeeping act on them.
func TestDecodeRejectsDisabledMechanismState(t *testing.T) {
	preread := baselineCfg()
	preread.PreRead = true
	wc := baselineCfg()
	wc.WriteCancel = true
	wc.WriteQueueCap = 2
	for _, tc := range []struct {
		name    string
		cfg     Config
		run     func(c *Controller)
		present func(b *bank) bool
	}{
		{"in-flight prereads", preread, func(c *Controller) {
			c.Write(0, pcm.LineOf(100, 5), lineWith(1))
		}, func(b *bank) bool { return len(b.prereads) > 0 }},
		{"bank mid-drain", wc, func(c *Controller) {
			c.Read(0, pcm.LineOf(100, 60)) // busy the bank so writes queue up
			for i := range 3 {
				c.Write(1, pcm.LineOf(100, 5+2*i), lineWith(1))
			}
		}, func(b *bank) bool { return b.draining }},
	} {
		r := newRig(t, tc.cfg)
		tc.run(r.c)
		if !tc.present(&r.c.banks[r.c.geo.Locate(pcm.LineOf(100, 5)).Bank]) {
			t.Fatalf("%s: the run did not leave the state under test", tc.name)
		}
		// The device goes first, as a resumed run restores it before its
		// controllers.
		e := snap.NewEncoder(1)
		r.d.EncodeState(e)
		r.c.EncodeState(e)
		data := e.Finish()
		for _, flag := range []bool{true, false} {
			cfg := tc.cfg
			cfg.PreRead, cfg.WriteCancel = cfg.PreRead && flag, cfg.WriteCancel && flag
			d, err := snap.NewDecoder(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			rig := newRig(t, cfg)
			if err := rig.d.DecodeState(d); err != nil {
				t.Fatal(err)
			}
			err = rig.c.DecodeState(d)
			var ie *snap.InvalidError
			if flag && err != nil || !flag && !errors.As(err, &ie) {
				t.Errorf("%s, flag %t: DecodeState err = %v", tc.name, flag, err)
			}
		}
	}
}

// TestDecodeRejectsOffDeviceState: a controller refuses checkpointed codec
// state for a line its device does not have, and accepts it over a device
// that holds the line, as a restored one does.
func TestDecodeRejectsOffDeviceState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		addr  pcm.LineAddr
		valid bool
	}{
		{"on the device", pcm.LineOf(100, 0), true},
		{"off the device", pcm.LineOf(testPages+100, 0), false},
	} {
		// A controller over a device twice the rig's size writes the line.
		big, err := pcm.NewDevice(pcm.Config{Pages: 2 * testPages, FillSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, err := alloc.New(2*testPages, 128)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(baselineCfg(), big, a, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		c.Write(0, tc.addr, lineWith(1))
		c.Flush(0) // the DIN codec now holds the line's coding bits
		e := snap.NewEncoder(1)
		c.EncodeState(e)
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		rig := newRig(t, baselineCfg())
		if tc.valid {
			rig.d.Write(tc.addr, big.Peek(tc.addr), pcm.NormalWrite)
		}
		err = rig.c.DecodeState(d)
		var ie *snap.InvalidError
		if (err == nil) != tc.valid || (err != nil && (!errors.As(err, &ie) || !strings.Contains(err.Error(), "outside"))) {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}

// TestControllerStateFootprint pins the cost of the controller's per-line
// state on scattered writes over an 8 GB device: the DIN coding words and
// the ECP entry index are slot-indexed tables beside the device's store, so
// they cost a few bytes per resident line however sparse the lines are.
func TestControllerStateFootprint(t *testing.T) {
	const pages = 1 << 21
	d, err := pcm.NewDevice(pcm.Config{Pages: pages, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(pages, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baselineCfg()
	cfg.Correction = LazyECP
	cfg.ECPEntries = 6
	c, err := New(cfg, d, a, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(5)
	var clock uint64
	for range 20000 {
		addr := pcm.LineAddr(rnd.Intn(d.Lines()))
		c.Write(clock, addr, pcm.Line{rnd.Uint64(), rnd.Uint64()})
		clock += 700
	}
	c.Flush(clock)
	resident := 0
	for b := range d.Banks() {
		d.VisitResident(b, func(pcm.LineAddr, uint32) { resident++ })
	}
	codec := c.codec.(*din.Codec).TableBytes()
	index := c.ECP().IndexBytes()
	if resident < 20000 || codec == 0 || index == 0 {
		t.Fatalf("%d resident lines, %d B codec table, %d B ECP index: the run did not exercise both", resident, codec, index)
	}
	per := float64(codec+index) / float64(resident)
	t.Logf("%d resident lines: DIN %d B + ECP index %d B = %.1f B per line", resident, codec, index, per)
	if per > 24 {
		t.Fatalf("DIN and ECP tables hold %.1f B per resident line, want <= 24", per)
	}
}

// TestDecodeRejectsImpossibleQueueState: Write coalesces, so a bank never
// queues two writes to one line, and a preread only ever names an entry id
// already handed out and, while that entry is queued, a side that needs
// verification and holds the preread's buffer. A checkpoint holding
// anything else is refused. A preread whose entry has already left the
// queue is real state — a full-queue drain executes entries whose prereads
// are still in flight — so it round-trips.
func TestDecodeRejectsImpossibleQueueState(t *testing.T) {
	cfg := baselineCfg()
	cfg.PreRead = true
	cfg.WriteQueueCap = 4
	// Same bank (pages 16 apart), interior rows: both sides need verification.
	line := func(row int) pcm.LineAddr { return pcm.LineOf(pcm.PageAddr(4+16*row), 3) }
	build := func() *testRig {
		r := newRig(t, cfg)
		r.c.Write(0, line(2), lineWith(1)) // idle bank: both prereads issue
		for i := range 4 {
			r.c.Write(uint64(1+i), line(10+2*i), lineWith(2)) // the fifth write drains
		}
		return r
	}
	bankOf := func(r *testRig) *bank { return &r.c.banks[r.c.geo.Locate(line(2)).Bank] }
	for _, tc := range []struct {
		name   string
		mutate func(c *Controller, b *bank)
		valid  bool
	}{
		{"as run", func(*Controller, *bank) {}, true},
		{"two writes to one line", func(c *Controller, b *bank) {
			dup := *b.wq[0]
			c.nextID++
			dup.id = c.nextID
			b.wq = append(b.wq, &dup)
		}, false},
		{"preread for an id never handed out", func(c *Controller, b *bank) {
			b.prereads = append(b.prereads, prOp{start: 1, end: 2, entryID: 12345, top: true})
		}, false},
		{"preread for an unbuffered side", func(c *Controller, b *bank) {
			e := b.wq[len(b.wq)-1]
			e.prTop = false
			b.prereads = append(b.prereads, prOp{start: 1, end: 2, entryID: e.id, top: true})
		}, false},
		{"preread for a side without verification", func(c *Controller, b *bank) {
			e := b.wq[len(b.wq)-1]
			e.verifyBelow, e.prBelow = false, true
			b.prereads = append(b.prereads, prOp{start: 1, end: 2, entryID: e.id, top: false})
		}, false},
	} {
		r := build()
		b := bankOf(r)
		if len(b.prereads) == 0 || b.findEntryByID(b.prereads[0].entryID) != nil {
			t.Fatalf("%s: the drain did not leave a preread for an executed entry", tc.name)
		}
		tc.mutate(r.c, b)
		e := snap.NewEncoder(1)
		r.d.EncodeState(e)
		r.c.EncodeState(e)
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		rig := newRig(t, cfg)
		if err := rig.d.DecodeState(d); err != nil {
			t.Fatal(err)
		}
		err = rig.c.DecodeState(d)
		var ie *snap.InvalidError
		if tc.valid && err != nil || !tc.valid && !errors.As(err, &ie) {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}
