package mc

import (
	"bytes"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
)

func maskOf(bits ...int) pcm.Mask {
	var m pcm.Mask
	for _, b := range bits {
		m[b/64] |= 1 << (b % 64)
	}
	return m
}

// barrierController builds a barrier controller over a banks-bank device.
func barrierController(t *testing.T, banks int) (*Controller, *pcm.Device) {
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
	cfg := baselineCfg()
	cfg.Correction = Barrier
	c, err := New(cfg, d, a, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestAbsorbCoalesces(t *testing.T) {
	c, _ := barrierController(t, pcm.NumBanks)
	w := c.barrier
	a := pcm.LineOf(5, 3)
	if cyc, ok := w.absorb(c, a, maskOf(1, 2), 0); !ok || cyc != 0 {
		t.Fatalf("first absorb = (%d, %v)", cyc, ok)
	}
	if cyc, ok := w.absorb(c, a, maskOf(2, 7), 0); !ok || cyc != 0 {
		t.Fatalf("coalescing absorb = (%d, %v)", cyc, ok)
	}
	if w.buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (same line coalesces)", w.buffered())
	}
	if w.coalesced != 1 {
		t.Fatalf("coalesced = %d", w.coalesced)
	}
	var line pcm.Line
	for i := range line {
		line[i] = ^uint64(0)
	}
	got := w.overrideRead(c, a, line)
	want := maskOf(1, 2, 7)
	for i := range got {
		if got[i] != ^uint64(0)&^want[i] {
			t.Fatalf("override word %d = %#x", i, got[i])
		}
	}
	// Other lines pass through untouched.
	other := w.overrideRead(c, pcm.LineOf(5, 4), line)
	if other != line {
		t.Fatal("override mutated an unbuffered line")
	}
}

func TestObserveWriteDropsEntry(t *testing.T) {
	c, _ := barrierController(t, pcm.NumBanks)
	w := c.barrier
	a := pcm.LineOf(9, 0)
	w.absorb(c, a, maskOf(3), 0)
	w.observeWrite(c, a)
	if w.buffered() != 0 {
		t.Fatalf("buffered = %d after superseding write", w.buffered())
	}
	// Dropping an un-buffered line is a no-op.
	w.observeWrite(c, a)
}

func TestBufferFillsAcrossBanks(t *testing.T) {
	c, _ := barrierController(t, pcm.NumBanks)
	w := c.barrier
	// Pages i land in bank i%NumBanks: same-bank lines share one buffer.
	for i := 0; i < 2; i++ {
		w.absorb(c, pcm.LineOf(pcm.PageAddr(i*pcm.NumBanks), 0), maskOf(i), 0)
	}
	if w.buffered() != 2 {
		t.Fatalf("buffered = %d", w.buffered())
	}
	// A different bank has its own empty buffer.
	w.absorb(c, pcm.LineOf(1, 0), maskOf(0), 0)
	if w.buffered() != 3 {
		t.Fatalf("buffered = %d", w.buffered())
	}
}

// TestBufferKeysByModuleBank: the buffers follow the controller's geometry,
// not the default 16-bank one. On a 4-bank module pages 0, 4, 8, ... all
// live in bank 0, so ten repairs there leave BarrierCapacity records after
// two evictions; on a 32-bank module banks b and b+16 keep separate
// buffers, so nine repairs in each evict once per bank.
func TestBufferKeysByModuleBank(t *testing.T) {
	c, _ := barrierController(t, 4)
	w := c.barrier
	for i := range 10 {
		if _, ok := w.absorb(c, pcm.LineOf(pcm.PageAddr(4*i), 0), maskOf(i), 0); !ok {
			t.Fatalf("absorb %d refused", i)
		}
	}
	if w.buffered() != BarrierCapacity || w.evictions != 2 {
		t.Fatalf("4-bank module: %d records after %d evictions, want %d after 2",
			w.buffered(), w.evictions, BarrierCapacity)
	}

	c, _ = barrierController(t, 32)
	w = c.barrier
	for i := range BarrierCapacity + 1 {
		w.absorb(c, pcm.LineOf(pcm.PageAddr(3+32*i), 0), maskOf(0), 0)
		w.absorb(c, pcm.LineOf(pcm.PageAddr(3+16+32*i), 0), maskOf(0), 0)
	}
	if w.buffered() != 2*BarrierCapacity || w.evictions != 2 {
		t.Fatalf("32-bank module: banks 3 and 19 share a buffer (%d records, %d evictions)", w.buffered(), w.evictions)
	}
}

// TestReadsAllocateNoBuffers: reads before the first write leave the
// barrier without buffers, so a checkpoint then encodes none, exactly as a
// controller that was never read encodes, and resumes to the same state.
// Were the read path to size the buffers, the encoded buffer count would
// depend on whether anything fetched line content.
func TestReadsAllocateNoBuffers(t *testing.T) {
	encode := func(d *pcm.Device, c *Controller) []byte {
		e := snap.NewEncoder(1)
		d.EncodeState(e)
		c.EncodeState(e)
		return e.Finish()
	}
	c, d := barrierController(t, pcm.NumBanks)
	quiet, qd := barrierController(t, pcm.NumBanks)
	for i := range 32 {
		a := pcm.LineOf(pcm.PageAddr(i), i%4)
		done, _ := c.Read(uint64(i*1000), a)
		if got := quiet.ReadTime(uint64(i*1000), a); got != done {
			t.Fatalf("read %d: ReadTime = %d, Read = %d", i, got, done)
		}
	}
	if c.barrier.banks != nil {
		t.Fatalf("reads sized %d bank buffers", len(c.barrier.banks))
	}
	data := encode(d, c)
	if !bytes.Equal(data, encode(qd, quiet)) {
		t.Fatal("checkpoint after reads differs from one of a controller whose reads fetched no data")
	}
	r, rd := barrierController(t, pcm.NumBanks)
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
	if r.barrier.banks != nil || !bytes.Equal(encode(rd, r), data) {
		t.Fatal("resume from a checkpoint taken after reads does not restore it")
	}
}
