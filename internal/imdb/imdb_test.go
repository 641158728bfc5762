package imdb

import (
	"bytes"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/sim"
	"sdpcm/internal/snap"
	"sdpcm/internal/workload"
)

// The barrier must satisfy the correction-policy interface plus every
// optional extension the controller probes for.
var (
	_ mc.CorrectionPolicy = (*Barrier)(nil)
	_ mc.ReadOverrider    = (*Barrier)(nil)
	_ mc.WriteObserver    = (*Barrier)(nil)
	_ mc.Drainer          = (*Barrier)(nil)
)

func maskOf(bits ...int) pcm.Mask {
	var m pcm.Mask
	for _, b := range bits {
		m[b/64] |= 1 << (b % 64)
	}
	return m
}

// policyContext builds a controller over a banks-bank device with w as its
// correction policy and returns the view w acts through.
func policyContext(t *testing.T, w *Barrier, banks int) mc.PolicyContext {
	t.Helper()
	c, _ := controller(t, w, banks)
	return c.PolicyContext()
}

// controller builds a controller over a banks-bank device with w as its
// correction policy.
func controller(t *testing.T, w *Barrier, banks int) (*mc.Controller, *pcm.Device) {
	t.Helper()
	const pages = 1 << 10
	d, err := pcm.NewDevice(pcm.Config{Pages: pages, Banks: banks, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.NewWithStrip(pages, 128, banks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Scheme(0, 0).MCConfig(0)
	cfg.Correction = w
	c, err := mc.New(cfg, d, a, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestAbsorbCoalesces(t *testing.T) {
	w := New(4)
	ctx := policyContext(t, w, pcm.NumBanks)
	a := pcm.LineOf(5, 3)
	if cyc, ok := w.Absorb(ctx, a, maskOf(1, 2), []int{1, 2}, 0); !ok || cyc != 0 {
		t.Fatalf("first absorb = (%d, %v)", cyc, ok)
	}
	if cyc, ok := w.Absorb(ctx, a, maskOf(2, 7), []int{2, 7}, 0); !ok || cyc != 0 {
		t.Fatalf("coalescing absorb = (%d, %v)", cyc, ok)
	}
	if w.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (same line coalesces)", w.Buffered())
	}
	if w.Coalesced != 1 {
		t.Fatalf("coalesced = %d", w.Coalesced)
	}
	var line pcm.Line
	for i := range line {
		line[i] = ^uint64(0)
	}
	got := w.OverrideRead(ctx, a, line)
	want := maskOf(1, 2, 7)
	for i := range got {
		if got[i] != ^uint64(0)&^want[i] {
			t.Fatalf("override word %d = %#x", i, got[i])
		}
	}
	// Other lines pass through untouched.
	other := w.OverrideRead(ctx, pcm.LineOf(5, 4), line)
	if other != line {
		t.Fatal("override mutated an unbuffered line")
	}
}

func TestObserveWriteDropsEntry(t *testing.T) {
	w := New(4)
	ctx := policyContext(t, w, pcm.NumBanks)
	a := pcm.LineOf(9, 0)
	w.Absorb(ctx, a, maskOf(3), []int{3}, 0)
	w.ObserveWrite(ctx, a)
	if w.Buffered() != 0 {
		t.Fatalf("buffered = %d after superseding write", w.Buffered())
	}
	// Dropping an un-buffered line is a no-op.
	w.ObserveWrite(ctx, a)
}

func TestBufferFillsAcrossBanks(t *testing.T) {
	w := New(2)
	ctx := policyContext(t, w, pcm.NumBanks)
	// Pages i land in bank i%NumBanks: same-bank lines share one buffer.
	for i := 0; i < 2; i++ {
		w.Absorb(ctx, pcm.LineOf(pcm.PageAddr(i*pcm.NumBanks), 0), maskOf(i), []int{i}, 0)
	}
	if w.Buffered() != 2 {
		t.Fatalf("buffered = %d", w.Buffered())
	}
	// A different bank has its own empty buffer.
	w.Absorb(ctx, pcm.LineOf(1, 0), maskOf(0), []int{0}, 0)
	if w.Buffered() != 3 {
		t.Fatalf("buffered = %d", w.Buffered())
	}
}

// TestBufferKeysByModuleBank: the buffers follow the controller's geometry,
// not the default 16-bank one. On a 4-bank module pages 0, 4, 8, ... all
// live in bank 0, so ten repairs there leave DefaultBufferPerBank records
// after two evictions; on a 32-bank module banks b and b+16 keep separate
// buffers.
func TestBufferKeysByModuleBank(t *testing.T) {
	w := New(0)
	ctx := policyContext(t, w, 4)
	for i := range 10 {
		if _, ok := w.Absorb(ctx, pcm.LineOf(pcm.PageAddr(4*i), 0), maskOf(i), []int{i}, 0); !ok {
			t.Fatalf("absorb %d refused", i)
		}
	}
	if w.Buffered() != DefaultBufferPerBank || w.Evictions != 2 {
		t.Fatalf("4-bank module: %d records after %d evictions, want %d after 2",
			w.Buffered(), w.Evictions, DefaultBufferPerBank)
	}

	w = New(1)
	ctx = policyContext(t, w, 32)
	w.Absorb(ctx, pcm.LineOf(3, 0), maskOf(0), []int{0}, 0)
	w.Absorb(ctx, pcm.LineOf(3+16, 0), maskOf(0), []int{0}, 0)
	if w.Buffered() != 2 || w.Evictions != 0 {
		t.Fatalf("32-bank module: banks 3 and 19 share a buffer (%d records, %d evictions)", w.Buffered(), w.Evictions)
	}
}

// TestReadsAllocateNoBuffers: reads before the first write leave the
// barrier without buffers, so a checkpoint then encodes none, exactly as a
// controller that was never read encodes, and resumes to the same state.
// Were the read path to size the buffers, the encoded buffer count would
// depend on whether anything fetched line content.
func TestReadsAllocateNoBuffers(t *testing.T) {
	encode := func(d *pcm.Device, c *mc.Controller) []byte {
		e := snap.NewEncoder(1)
		d.EncodeState(e)
		c.EncodeState(e)
		return e.Finish()
	}
	w := New(0)
	c, d := controller(t, w, pcm.NumBanks)
	quiet, qd := controller(t, New(0), pcm.NumBanks)
	for i := range 32 {
		a := pcm.LineOf(pcm.PageAddr(i), i%4)
		done, _ := c.Read(uint64(i*1000), a)
		if got := quiet.ReadTime(uint64(i*1000), a); got != done {
			t.Fatalf("read %d: ReadTime = %d, Read = %d", i, got, done)
		}
	}
	if w.banks != nil {
		t.Fatalf("reads sized %d bank buffers", len(w.banks))
	}
	data := encode(d, c)
	if !bytes.Equal(data, encode(qd, quiet)) {
		t.Fatal("checkpoint after reads differs from one of a controller whose reads fetched no data")
	}
	w2 := New(0)
	r, rd := controller(t, w2, pcm.NumBanks)
	dec, err := snap.NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if err := r.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if w2.banks != nil || !bytes.Equal(encode(rd, r), data) {
		t.Fatal("resume from a checkpoint taken after reads does not restore it")
	}
}

// A full sim run with a tiny buffer forces evictions and flush drains;
// CheckIntegrity proves no disturbance error escapes the barrier — reads
// see corrected data while repairs are buffered, and the final drain
// leaves the array clean.
func TestBarrierIntegrityUnderLoad(t *testing.T) {
	w := New(1) // every second same-bank victim evicts
	s := Scheme(0, 1)
	s.Policy = func(cfg *mc.Config) { cfg.Correction = w }
	res, err := sim.Run(sim.Config{
		Scheme:         s,
		Mix:            workload.HomogeneousMix("mcf", 4),
		RefsPerCore:    4000,
		MemPages:       1 << 16,
		RegionPages:    1024,
		WriteQueueCap:  8,
		Seed:           42,
		CheckIntegrity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MC.LazyRecords == 0 {
		t.Fatal("barrier absorbed nothing; workload too gentle for the test")
	}
	if w.Evictions == 0 {
		t.Fatal("single-entry buffer never evicted; eviction path untested")
	}
	if w.Buffered() != 0 {
		t.Fatalf("%d repairs still buffered after flush", w.Buffered())
	}
}

// The registered scheme must resolve by name and alias and run end-to-end.
func TestRegisteredScheme(t *testing.T) {
	for _, name := range []string{"imdb", "barrier", "IMDB"} {
		s, err := core.ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name != "IMDB" || s.PolicyKey != "imdb:8" || s.Policy == nil {
			t.Fatalf("ByName(%q) = %+v", name, s)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, n := range core.Names() {
		if n == "imdb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("imdb missing from Names() = %v", core.Names())
	}
}
