package mc

import (
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/thermal"
)

const testPages = 512 // 32 rows per bank

var (
	denseRates = thermal.RatesFor(2, 2, 20) // 4F²: WD on both axes
	dinRates   = thermal.RatesFor(2, 4, 20) // 8F²: word-line WD only
)

// testRig bundles a controller with its device and allocator.
type testRig struct {
	c *Controller
	d *pcm.Device
	a *alloc.Allocator
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	d, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
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
	return &testRig{c: c, d: d, a: a}
}

func baselineCfg() Config {
	return Config{
		Rates:           denseRates,
		VerifyNeighbors: true,
	}
}

func dinCfg() Config {
	return Config{
		Rates:           dinRates,
		VerifyNeighbors: false,
	}
}

func lineWith(words ...uint64) pcm.Line {
	var l pcm.Line
	copy(l[:], words)
	return l
}

func TestReadLatency(t *testing.T) {
	r := newRig(t, dinCfg())
	done, _ := r.c.Read(1000, pcm.LineOf(100, 0))
	if done != 1400 {
		t.Fatalf("idle-bank read done at %d, want 1400", done)
	}
}

func TestBankConflictSerialisesReads(t *testing.T) {
	r := newRig(t, dinCfg())
	a1 := pcm.LineOf(100, 0)
	a2 := pcm.LineOf(100+pcm.NumBanks, 0) // same bank, next row
	done1, _ := r.c.Read(0, a1)
	done2, _ := r.c.Read(10, a2)
	if done1 != 400 || done2 != 800 {
		t.Fatalf("same-bank reads done at %d/%d, want 400/800", done1, done2)
	}
	// A different bank is independent.
	done3, _ := r.c.Read(10, pcm.LineOf(101, 0))
	if done3 != 410 {
		t.Fatalf("other-bank read done at %d, want 410", done3)
	}
}

func TestWriteReadBack(t *testing.T) {
	r := newRig(t, baselineCfg())
	addr := pcm.LineOf(100, 5)
	data := lineWith(0xdeadbeef, 42)
	r.c.Write(0, addr, data)
	if got := r.c.QueueOccupancy(); got != 1 {
		t.Fatalf("queue occupancy = %d", got)
	}
	// Forwarding from the queue.
	done, got := r.c.Read(100, addr)
	if got != data {
		t.Fatal("forwarded read returned wrong data")
	}
	if done != 100+40 {
		t.Fatalf("forwarded read done at %d, want 140", done)
	}
	if r.c.Stats.ForwardedReads != 1 {
		t.Fatal("forwarding not counted")
	}
	// After flush, from the array.
	r.c.Flush(1000)
	if got := r.c.PeekData(addr); got != data {
		t.Fatalf("array readback = %v, want %v", got, data)
	}
}

func TestWriteCoalescing(t *testing.T) {
	r := newRig(t, baselineCfg())
	addr := pcm.LineOf(100, 0)
	r.c.Write(0, addr, lineWith(1))
	r.c.Write(10, addr, lineWith(2))
	if r.c.QueueOccupancy() != 1 || r.c.Stats.Coalesced != 1 {
		t.Fatalf("occupancy=%d coalesced=%d", r.c.QueueOccupancy(), r.c.Stats.Coalesced)
	}
	_, got := r.c.Read(20, addr)
	if got != lineWith(2) {
		t.Fatal("coalesced write must expose the newest data")
	}
}

func TestFullQueueTriggersBurstyDrain(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 4
	cfg.LowWatermark = 3
	r := newRig(t, cfg)
	bankPage := pcm.PageAddr(100) // all writes to bank 100%16=4
	// Busy the bank first so background draining cannot run.
	r.c.Read(0, pcm.LineOf(bankPage, 60))
	for i := 0; i < 5; i++ {
		addr := pcm.LineOf(bankPage, i)
		r.c.Write(uint64(i+1), addr, lineWith(uint64(i)))
	}
	// The 5th write found the queue full: bursty drain down to the
	// watermark, then the new write is buffered.
	if r.c.Stats.Drains != 1 {
		t.Fatalf("drains = %d, want 1", r.c.Stats.Drains)
	}
	if r.c.Stats.WriteOps != 1 || r.c.QueueOccupancy() != 4 {
		t.Fatalf("ops=%d occupancy=%d", r.c.Stats.WriteOps, r.c.QueueOccupancy())
	}
	// A read to that bank must wait behind the burst.
	done, _ := r.c.Read(10, pcm.LineOf(bankPage+16*3, 20))
	if done < 400+400+400 { // initial read + >=1 write op + this read
		t.Fatalf("read done at %d, expected to wait for the burst", done)
	}
}

func TestBackgroundDrainUsesIdleBanks(t *testing.T) {
	// Writes above the watermark retire during idle time without any
	// bursty drain, so reads arriving much later see a free bank.
	cfg := baselineCfg()
	cfg.WriteQueueCap = 8
	cfg.LowWatermark = 2
	r := newRig(t, cfg)
	for i := 0; i < 6; i++ {
		r.c.Write(uint64(i)*100000, pcm.LineOf(100, i), lineWith(uint64(i), 3))
	}
	if r.c.Stats.Drains != 0 {
		t.Fatalf("drains = %d, want 0 (background only)", r.c.Stats.Drains)
	}
	if r.c.Stats.WriteOps == 0 {
		t.Fatal("background drain never ran")
	}
	if r.c.QueueOccupancy() > cfg.LowWatermark+1 {
		t.Fatalf("occupancy = %d, want near watermark", r.c.QueueOccupancy())
	}
	// Bank long idle: a late read is serviced immediately.
	done, _ := r.c.Read(10_000_000, pcm.LineOf(100+16*2, 40))
	if done != 10_000_400 {
		t.Fatalf("late read done at %d, want 10000400", done)
	}
}

func TestDINSchemeWritesAreCheap(t *testing.T) {
	// With WD-free bit-lines there are no verification reads, no
	// corrections, and no disturbance on neighbours.
	cfg := dinCfg()
	cfg.WriteQueueCap = 2
	r := newRig(t, cfg)
	for i := 0; i < 10; i++ {
		r.c.Write(uint64(i*10), pcm.LineOf(100, i), lineWith(uint64(i), 7))
	}
	r.c.Flush(1000)
	if r.c.Stats.VerifyReads != 0 || r.c.Stats.CorrectionWrites != 0 {
		t.Fatalf("DIN scheme did VnC: %+v", r.c.Stats)
	}
	if r.c.WDStats().BitLineFlips != 0 {
		t.Fatal("8F² layout must have no bit-line flips")
	}
}

func TestBaselineVnCVerifiesBothNeighbours(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	// Interior row write: both neighbours exist and are (1:1)-verified.
	addr := pcm.LineOf(100, 0)
	r.c.Write(0, addr, lineWith(0xffffffff, 0xff00ff00))
	r.c.Flush(10)
	// 2 pre-write + 2 post-write reads.
	if r.c.Stats.VerifyReads != 4 {
		t.Fatalf("verify reads = %d, want 4", r.c.Stats.VerifyReads)
	}
}

func TestBoundaryRowsVerifyOnlyExistingNeighbours(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	r.c.Write(0, pcm.LineOf(3, 0), lineWith(1)) // row 0: no top neighbour
	r.c.Flush(10)
	if r.c.Stats.VerifyReads != 2 {
		t.Fatalf("row-0 verify reads = %d, want 2 (below only)", r.c.Stats.VerifyReads)
	}
}

func TestCorrectionsHappenWithoutECP(t *testing.T) {
	// ECP-0 baseline: every detected flip forces a correction write.
	cfg := baselineCfg()
	cfg.ECPEntries = 0
	cfg.WriteQueueCap = 4
	r := newRig(t, cfg)
	var clock uint64
	for i := 0; i < 200; i++ {
		addr := pcm.LineOf(pcm.PageAddr(16+i%64), i%64)
		data := lineWith(uint64(i)*0x9e3779b97f4a7c15, ^uint64(i), uint64(i)<<32)
		r.c.Write(clock, addr, data)
		clock += 1000
	}
	r.c.Flush(clock)
	if r.c.Stats.CorrectionWrites == 0 {
		t.Fatal("expected corrections with ECP-0 under dense rates")
	}
	perWrite := float64(r.c.Stats.CorrectionWrites) / float64(r.c.Stats.WriteOps)
	if perWrite < 0.3 {
		t.Fatalf("corrections per write = %v, implausibly low for ECP-0", perWrite)
	}
}

func TestLazyCorrectionReducesCorrections(t *testing.T) {
	run := func(lazy bool, entries int) (corrections, ops uint64) {
		cfg := baselineCfg()
		if lazy {
			cfg.Correction = LazyECP
		}
		cfg.ECPEntries = entries
		cfg.WriteQueueCap = 4
		r := newRig(t, cfg)
		var clock uint64
		for i := 0; i < 300; i++ {
			addr := pcm.LineOf(pcm.PageAddr(16+i%64), i%64)
			data := lineWith(uint64(i)*0xabcdef123, ^uint64(i*3))
			r.c.Write(clock, addr, data)
			clock += 1000
		}
		r.c.Flush(clock)
		return r.c.Stats.CorrectionWrites, r.c.Stats.WriteOps
	}
	c0, ops0 := run(false, 0)
	c6, ops6 := run(true, 6)
	r0 := float64(c0) / float64(ops0)
	r6 := float64(c6) / float64(ops6)
	if r6 >= r0/2 {
		t.Fatalf("LazyC/ECP-6 corrections per write %v not well below baseline %v", r6, r0)
	}
}

func TestDataIntegrityGolden(t *testing.T) {
	// The whole point of VnC: under heavy disturbance, every line the host
	// wrote must read back exactly, and untouched in-use lines must keep
	// their original content. Run each scheme combination through the same
	// random workload and verify.
	schemes := []struct {
		name string
		cfg  Config
	}{
		{"baseline", baselineCfg()},
		{"lazy6", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP
			c.ECPEntries = 6
			return c
		}()},
		{"lazy0", func() Config {
			c := baselineCfg()
			c.Correction = LazyECP
			c.ECPEntries = 0
			return c
		}()},
		{"preread", func() Config {
			c := baselineCfg()
			c.PreRead = true
			return c
		}()},
		{"wc+lazy", func() Config {
			c := baselineCfg()
			c.WriteCancel = true
			c.Correction = LazyECP
			c.ECPEntries = 6
			return c
		}()},
		{"din", dinCfg()},
	}
	for _, s := range schemes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := s.cfg
			cfg.WriteQueueCap = 4
			r := newRig(t, cfg)
			shadow := map[pcm.LineAddr]pcm.Line{}
			rnd := rng.New(5)
			var clock uint64
			for i := 0; i < 1500; i++ {
				page := pcm.PageAddr(rnd.Intn(256))
				addr := pcm.LineOf(page, rnd.Intn(64))
				if rnd.Bernoulli(0.6) {
					var data pcm.Line
					for w := range data {
						data[w] = rnd.Uint64()
					}
					r.c.Write(clock, addr, data)
					shadow[addr] = data
				} else {
					_, got := r.c.Read(clock, addr)
					want, ok := shadow[addr]
					if ok && got != want {
						t.Fatalf("read %d returned stale/corrupt data", addr)
					}
				}
				clock += uint64(rnd.Intn(2000))
			}
			r.c.Flush(clock)
			for addr, want := range shadow {
				if got := r.c.PeekData(addr); got != want {
					t.Fatalf("line %d corrupted: WD escaped VnC", addr)
				}
			}
			// Untouched lines in verified territory must be pristine.
			fresh, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for p := pcm.PageAddr(0); p < 256; p++ {
				for slot := 0; slot < 64; slot += 17 {
					addr := pcm.LineOf(p, slot)
					if _, written := shadow[addr]; written {
						continue
					}
					checked++
					if got := r.c.PeekData(addr); got != fresh.Peek(addr) {
						t.Fatalf("untouched line %d corrupted (slot %d page %d)", addr, slot, p)
					}
				}
			}
			if checked == 0 {
				t.Fatal("test checked nothing")
			}
		})
	}
}

func TestPreReadUsesIdleBanks(t *testing.T) {
	cfg := baselineCfg()
	cfg.PreRead = true
	cfg.WriteQueueCap = 8
	r := newRig(t, cfg)
	// Write with a long quiet period: prereads issue immediately at
	// enqueue (bank idle).
	r.c.Write(0, pcm.LineOf(100, 0), lineWith(0xff, 0xee))
	if r.c.Stats.PreReadsIssued != 2 {
		t.Fatalf("prereads issued = %d, want 2", r.c.Stats.PreReadsIssued)
	}
	// Let them complete, then drain: the write op needs no pre-write reads.
	r.c.Flush(100000)
	if r.c.Stats.PreReadHits != 1 {
		t.Fatalf("preread hits = %d, want 1", r.c.Stats.PreReadHits)
	}
	// Only the 2 post-write verification reads were charged at write time.
	if r.c.Stats.VerifyReads != 2 {
		t.Fatalf("verify reads at write time = %d, want 2", r.c.Stats.VerifyReads)
	}
}

func TestPreReadCanceledByDemandRead(t *testing.T) {
	cfg := baselineCfg()
	cfg.PreRead = true
	r := newRig(t, cfg)
	r.c.Write(0, pcm.LineOf(100, 0), lineWith(1)) // prereads start at 0
	// Demand read to the same bank 100 cycles later: both prereads are
	// still in flight (400 cycles each, serial): cancel them.
	done, _ := r.c.Read(100, pcm.LineOf(100+16, 30))
	if done != 500 {
		t.Fatalf("demand read done at %d, want 500 (no preread wait)", done)
	}
	if r.c.Stats.PreReadsCanceled == 0 {
		t.Fatal("in-flight prereads must be canceled by a demand read")
	}
}

func TestPreReadForwardsFromQueue(t *testing.T) {
	cfg := baselineCfg()
	cfg.PreRead = true
	cfg.WriteQueueCap = 8
	r := newRig(t, cfg)
	top := pcm.LineOf(100, 0)
	bottom := pcm.LineOf(100+16, 0) // bit-line neighbour of top
	r.c.Write(0, top, lineWith(0xaa))
	// Busy the bank? No: second write's preread of `top` must forward from
	// the queue at zero bank cost.
	r.c.Write(10, bottom, lineWith(0xbb))
	if r.c.Stats.PreReadsForwarded == 0 {
		t.Fatal("expected forwarded preread for queued neighbour")
	}
}

func TestWriteCancellationPreemptsDrain(t *testing.T) {
	mkRig := func(wc bool) (*testRig, uint64) {
		cfg := baselineCfg()
		cfg.WriteCancel = wc
		cfg.WriteQueueCap = 8
		cfg.LowWatermark = 2
		r := newRig(t, cfg)
		// Busy the bank so writes pile up, then overflow the queue to
		// trigger a drain at t=10.
		r.c.Read(0, pcm.LineOf(100, 60))
		for i := 0; i < 9; i++ {
			r.c.Write(uint64(i+1), pcm.LineOf(100, i), lineWith(uint64(i), ^uint64(i), uint64(i)*3))
		}
		// Read arriving mid-drain.
		done, _ := r.c.Read(1000, pcm.LineOf(100+16*2, 40))
		return r, done
	}
	_, doneNoWC := mkRig(false)
	rWC, doneWC := mkRig(true)
	if doneWC >= doneNoWC {
		t.Fatalf("WC read done at %d, no-WC at %d: cancellation must help", doneWC, doneNoWC)
	}
	if rWC.c.Stats.ReadPreemptions == 0 {
		t.Fatal("preemption not counted")
	}
	// The paused drain must still complete eventually.
	rWC.c.Flush(1 << 40)
	if rWC.c.QueueOccupancy() != 0 {
		t.Fatal("drain never completed after preemption")
	}
}

func TestNMAllocSkipsNoUseNeighbours(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	// Allocate under (1:2) so the written pages' neighbours are no-use.
	b, err := r.a.Alloc(32, alloc.Tag12)
	if err != nil {
		t.Fatal(err)
	}
	usable := r.a.Usable(b)
	var clock uint64
	for _, p := range usable {
		// Skip region-boundary strips, which always verify one side.
		s := r.a.StripIndexInRegion(p)
		if s == 0 || s == r.a.StripsPerRegion()-1 {
			continue
		}
		r.c.Write(clock, pcm.LineOf(p, 3), lineWith(uint64(p)))
		clock += 100000
	}
	r.c.Flush(clock)
	if r.c.Stats.VerifyReads != 0 {
		t.Fatalf("(1:2) interior writes did %d verify reads, want 0", r.c.Stats.VerifyReads)
	}
}

func TestNMAlloc23VerifiesOneSide(t *testing.T) {
	cfg := baselineCfg()
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	b, err := r.a.Alloc(64, alloc.Tag23)
	if err != nil {
		t.Fatal(err)
	}
	var clock uint64
	writes := 0
	for _, p := range r.a.Usable(b) {
		s := r.a.StripIndexInRegion(p)
		if s == 0 || s == r.a.StripsPerRegion()-1 {
			continue
		}
		r.c.Write(clock, pcm.LineOf(p, 0), lineWith(uint64(p), 0xf0f0))
		clock += 100000
		writes++
	}
	r.c.Flush(clock)
	// Each interior (2:3) write verifies exactly one neighbour: 1 pre + 1
	// post read.
	if int(r.c.Stats.VerifyReads) != 2*writes {
		t.Fatalf("verify reads = %d for %d writes, want %d",
			r.c.Stats.VerifyReads, writes, 2*writes)
	}
}

func TestChargeDecomposition(t *testing.T) {
	// With verification charging off, VnC still happens (device effects)
	// but consumes no bank time for the reads.
	cfg := baselineCfg()
	cfg.NoVerifyCharge = true
	cfg.WriteQueueCap = 1
	r := newRig(t, cfg)
	r.c.Write(0, pcm.LineOf(100, 0), lineWith(0x1234, 0x5678))
	r.c.Flush(10)
	if r.c.Stats.VerifyReads != 4 {
		t.Fatalf("verify reads = %d, want 4 (still performed)", r.c.Stats.VerifyReads)
	}
	if r.c.Stats.VerifyCycles != 0 {
		t.Fatalf("verify cycles = %d, want 0 (not charged)", r.c.Stats.VerifyCycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		r, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := alloc.New(testPages, 128)
		cfg := baselineCfg()
		cfg.Correction = LazyECP
		cfg.ECPEntries = 6
		cfg.PreRead = true
		cfg.WriteQueueCap = 4
		c, err := New(cfg, r, a, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		rnd := rng.New(2)
		var clock uint64
		for i := 0; i < 500; i++ {
			addr := pcm.LineOf(pcm.PageAddr(rnd.Intn(200)), rnd.Intn(64))
			if rnd.Bool() {
				var data pcm.Line
				data[0] = rnd.Uint64()
				c.Write(clock, addr, data)
			} else {
				c.Read(clock, addr)
			}
			clock += uint64(rnd.Intn(500))
		}
		c.Flush(clock)
		return c.Stats
	}
	if run() != run() {
		t.Fatal("controller must be deterministic under fixed seeds")
	}
}
