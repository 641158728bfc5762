package mc

import (
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

func TestCascadeDepthTruncation(t *testing.T) {
	// With a cascade depth of 1 and certain disturbance (rate 1.0 on the
	// bit-line axis), corrections keep disturbing their neighbours and the
	// recursion must be cut, counted, and still terminate.
	cfg := baselineCfg()
	cfg.Rates.BitLine = 1.0
	cfg.MaxCascadeDepth = 1
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	var clock uint64
	for i := 0; i < 50; i++ {
		addr := pcm.LineOf(pcm.PageAddr(32+i%16), i%64)
		r.c.Write(clock, addr, lineWith(^uint64(i), uint64(i)*0x1234567))
		clock += 100000
	}
	r.c.Flush(clock)
	if r.c.Stats.CascadeTruncated == 0 {
		t.Fatal("expected truncated cascades at rate 1.0 with depth 1")
	}
}

func TestHardErrorsForceCorrections(t *testing.T) {
	// On an aged DIMM hard errors eat ECP entries, so fewer WD errors can
	// be parked: LazyC falls back to eager correction more often. ECP-2 at
	// end of life (a mean of 1.5 hard errors per line) leaves most lines
	// with at most one free entry.
	mk := func(lifetime float64) *testRig {
		cfg := baselineCfg()
		cfg.Correction = LazyECP
		cfg.ECPEntries = 2
		cfg.WriteQueueCap = 2
		cfg.HardErrorLifetime = lifetime
		return newRig(t, cfg)
	}
	drive := func(r *testRig) {
		var clock uint64
		for i := 0; i < 150; i++ {
			addr := pcm.LineOf(pcm.PageAddr(32+i%32), i%64)
			r.c.Write(clock, addr, lineWith(uint64(i)*0x9e3779b97f4a7c15, ^uint64(i)))
			clock += 50000
		}
		r.c.Flush(clock)
	}
	pristine := mk(0)
	drive(pristine)
	worn := mk(1)
	drive(worn)
	if worn.c.Stats.CorrectionWrites <= pristine.c.Stats.CorrectionWrites {
		t.Fatalf("worn DIMM corrections %d must exceed pristine %d",
			worn.c.Stats.CorrectionWrites, pristine.c.Stats.CorrectionWrites)
	}
	if pristine.c.Stats.LazyRecords == 0 {
		t.Fatal("pristine DIMM must park errors lazily")
	}
}

func TestReadReturnsECPCorrectedData(t *testing.T) {
	// Park WD errors in ECP (LazyC), then demand-read the disturbed line
	// through the controller: the returned data must be corrected even
	// though the array still holds flipped cells. A zero-filled device and
	// a three-RESET aggressor keep the error count within ECP-6.
	cfg := baselineCfg()
	cfg.Correction = LazyECP
	cfg.ECPEntries = 6
	cfg.Rates.BitLine = 1.0 // make disturbance certain
	cfg.Rates.WordLine = 0  // no in-line rewrite adds RESETs of its own
	cfg.WriteQueueCap = 1
	// Identity codec: the DIN encoder would (correctly!) invert the group
	// and avoid the RESET pulses this test needs.
	cfg.Encoding = Raw
	d, err := pcm.NewDevice(pcm.Config{Pages: testPages, ZeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(testPages, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, d, a, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}

	victim := pcm.LineOf(100, 7)
	var victimData pcm.Line // all-zero: maximally vulnerable

	// Aggressor below the victim: SET three cells (no disturbance), then
	// RESET them (three certain flips on the victim, parked in ECP).
	aggressor := pcm.LineOf(100+16, 7)
	c.Write(0, aggressor, lineWith(0x7))
	c.Flush(10)
	c.Write(100000, aggressor, pcm.Line{})
	c.Flush(200000)

	if got := len(c.ECP().WDBits(victim)); got != 3 {
		t.Fatalf("parked WD errors = %d, want 3", got)
	}
	// The raw array content is corrupted...
	if d.Peek(victim) == victimData {
		t.Fatal("test setup failed: victim not physically disturbed")
	}
	// ...but a demand read returns the true data.
	_, got := c.Read(300000, victim)
	if got != victimData {
		t.Fatal("demand read returned uncorrected data")
	}
}

func TestFlushCompletesLazyDrain(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteCancel = true
	cfg.WriteQueueCap = 4
	cfg.LowWatermark = 1
	r := newRig(t, cfg)
	// Busy the bank, overflow the queue (lazy drain starts), then Flush.
	r.c.Read(0, pcm.LineOf(100, 60))
	for i := 0; i < 6; i++ {
		r.c.Write(uint64(i+1), pcm.LineOf(100, i), lineWith(uint64(i)))
	}
	end := r.c.Flush(10)
	if r.c.QueueOccupancy() != 0 {
		t.Fatalf("flush left %d queued writes", r.c.QueueOccupancy())
	}
	if end <= 10 {
		t.Fatal("flush must account the drained work")
	}
	// All six writes must be readable.
	for i := 0; i < 6; i++ {
		if got := r.c.PeekData(pcm.LineOf(100, i)); got != lineWith(uint64(i)) {
			t.Fatalf("write %d lost across flush", i)
		}
	}
}

func TestCoalescingPreservesPrereadState(t *testing.T) {
	cfg := baselineCfg()
	cfg.PreRead = true
	cfg.WriteQueueCap = 8
	r := newRig(t, cfg)
	addr := pcm.LineOf(100, 0)
	r.c.Write(0, addr, lineWith(1)) // prereads issue immediately (idle bank)
	issued := r.c.Stats.PreReadsIssued
	if issued == 0 {
		t.Fatal("prereads not issued")
	}
	// Coalesce much later, when the prereads completed: they stay valid.
	r.c.Write(1<<20, addr, lineWith(2))
	if r.c.Stats.Coalesced != 1 {
		t.Fatal("write not coalesced")
	}
	r.c.Flush(1 << 21)
	if r.c.Stats.PreReadHits != 1 {
		t.Fatalf("preread hits = %d: coalescing dropped buffered pre-reads", r.c.Stats.PreReadHits)
	}
	if got := r.c.PeekData(addr); got != lineWith(2) {
		t.Fatal("coalesced data lost")
	}
}

func TestFNWEncoderThroughController(t *testing.T) {
	cfg := baselineCfg()
	cfg.Encoding = FlipNWrite
	cfg.WriteQueueCap = 2
	r := newRig(t, cfg)
	shadow := map[pcm.LineAddr]pcm.Line{}
	rnd := rng.New(31)
	var clock uint64
	for i := 0; i < 300; i++ {
		addr := pcm.LineOf(pcm.PageAddr(rnd.Intn(128)), rnd.Intn(64))
		var data pcm.Line
		for w := range data {
			data[w] = rnd.Uint64()
		}
		r.c.Write(clock, addr, data)
		shadow[addr] = data
		clock += uint64(rnd.Intn(3000))
	}
	r.c.Flush(clock)
	for addr, want := range shadow {
		if got := r.c.PeekData(addr); got != want {
			t.Fatalf("FNW-encoded line %d corrupted", addr)
		}
	}
}

func TestDeviceReadAccounting(t *testing.T) {
	// Every architectural read the controller performs must be visible in
	// the device counters: demand + verification + cascade + prereads.
	cfg := baselineCfg()
	cfg.PreRead = true
	cfg.WriteQueueCap = 4
	r := newRig(t, cfg)
	rnd := rng.New(8)
	var clock uint64
	for i := 0; i < 200; i++ {
		addr := pcm.LineOf(pcm.PageAddr(rnd.Intn(64)), rnd.Intn(64))
		if rnd.Bool() {
			r.c.Write(clock, addr, lineWith(rnd.Uint64(), rnd.Uint64()))
		} else {
			r.c.Read(clock, addr)
		}
		clock += uint64(rnd.Intn(2000))
	}
	r.c.Flush(clock)
	s := r.c.Stats
	arch := s.DemandReads - s.ForwardedReads + s.VerifyReads + s.CascadeReads + s.PreReadsIssued
	if r.d.Stats().Reads != arch {
		t.Fatalf("device reads %d != architectural reads %d (%+v)",
			r.d.Stats().Reads, arch, s)
	}
}

func TestRegionBoundaryAlwaysVerifies(t *testing.T) {
	// Under (1:2), a write to the first strip of a region must verify its
	// top neighbour even though the allocator would call it no-use (§4.4
	// reliability rule).
	cfg := baselineCfg()
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	if _, err := r.a.Alloc(64, alloc.Tag12); err != nil {
		t.Fatal(err)
	}
	// The first usable page of the region is strip 0.
	first := pcm.PageAddr(0)
	if r.a.RegionTag(first) != alloc.Tag12 {
		t.Skip("allocator did not hand out region 0; strip arithmetic differs")
	}
	// Interior page exists above? Row 0 has no physical top neighbour, so
	// use the *last* strip instead: its below neighbour must be verified.
	strips := r.a.StripsPerRegion()
	lastStripPage := pcm.PageAddr((strips - 1) * 16)
	r.c.Write(0, pcm.LineOf(lastStripPage, 0), lineWith(0xabc))
	r.c.Flush(10)
	if r.c.Stats.VerifyReads == 0 {
		t.Fatal("region-boundary write skipped verification")
	}
}
