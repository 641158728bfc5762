package mc_test

import (
	"bytes"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
)

const diffPages = 1 << 10

func newController(t *testing.T, cfg mc.Config) (*mc.Controller, *pcm.Device) {
	t.Helper()
	d, err := pcm.NewDevice(pcm.Config{Pages: diffPages, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(diffPages, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mc.New(cfg, d, a, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

// state is a controller's checkpoint bytes, its device's first.
func state(d *pcm.Device, c *mc.Controller) []byte {
	e := snap.NewEncoder(1)
	d.EncodeState(e)
	c.EncodeState(e)
	return e.Finish()
}

// restore builds a fresh controller from a checkpoint's bytes.
func restore(t *testing.T, cfg mc.Config, data []byte) (*mc.Controller, *pcm.Device) {
	t.Helper()
	c, d := newController(t, cfg)
	dec, err := snap.NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	return c, d
}

// TestReadTimeMatchesRead drives two alike controllers with one random
// stream of writes, reads, flushes and checkpoint restores, one reading
// through Read and the other through the timing-only ReadTime, with
// LatestData on every other read. The completion times, the data, the
// counters and the checkpoint bytes must agree after every operation: the
// timing-only read changes nothing but whether the content is fetched.
func TestReadTimeMatchesRead(t *testing.T) {
	schemes := []core.Scheme{
		core.LazyC(6),
		core.LazyCPreRead(6),
		core.WC(),
		core.IMDB(6),
	}
	for _, s := range schemes {
		t.Run(s.Name, func(t *testing.T) {
			mk := func() mc.Config { return s.MCConfig(8) }
			a, da := newController(t, mk())
			b, db := newController(t, mk())
			rnd := rng.New(5)
			// A few pages per bank keep queue hits, coalescing, adjacent-row
			// verification and bank conflicts frequent.
			line := func() pcm.LineAddr {
				return pcm.LineOf(pcm.PageAddr(rnd.Intn(64)), rnd.Intn(4))
			}
			var now uint64
			const ops = 3000
			for i := range ops {
				now += uint64(rnd.Intn(1200))
				switch r := rnd.Intn(100); {
				case r < 5:
					// A burst to one bank fills its queue: a full-queue
					// drain, preemptible under WriteCancel.
					page := rnd.Intn(16)
					for k := range 12 {
						addr := pcm.LineOf(pcm.PageAddr(page+16*(k%4)), k/4)
						a.Write(now, addr, pcm.Line{uint64(i), uint64(k)})
						b.Write(now, addr, pcm.Line{uint64(i), uint64(k)})
					}
				case r < 45:
					addr := line()
					var data pcm.Line
					for w := range data {
						data[w] = rnd.Uint64()
					}
					a.Write(now, addr, data)
					b.Write(now, addr, data)
				case r < 97:
					// b fetches the content of every other read only: a
					// fetch must leave no trace in the controller's state.
					addr := line()
					doneA, dataA := a.Read(now, addr)
					if doneB := b.ReadTime(now, addr); doneA != doneB {
						t.Fatalf("op %d: Read(%d, %d) done at %d, ReadTime at %d", i, now, addr, doneA, doneB)
					}
					if i%2 == 1 {
						if dataB := b.LatestData(addr); dataA != dataB {
							t.Fatalf("op %d: Read(%d, %d) data %x, LatestData %x", i, now, addr, dataA, dataB)
						}
					}
				case r < 98:
					if endA, endB := a.Flush(now), b.Flush(now); endA != endB {
						t.Fatalf("op %d: Flush = %d and %d", i, endA, endB)
					}
				default:
					a, da = restore(t, mk(), state(da, a))
					b, db = restore(t, mk(), state(db, b))
				}
				if a.Stats != b.Stats {
					t.Fatalf("op %d: Stats differ:\n%+v\n%+v", i, a.Stats, b.Stats)
				}
				if !bytes.Equal(state(da, a), state(db, b)) {
					t.Fatalf("op %d: checkpoint bytes differ", i)
				}
			}
			st := a.Stats
			if st.ForwardedReads == 0 || st.DemandReads == st.ForwardedReads || st.Drains == 0 ||
				s.PreRead && st.PreReadsCanceled == 0 || s.WriteCancel && st.ReadPreemptions == 0 {
				t.Fatalf("stream too gentle: %+v", st)
			}
			if s.Barrier && a.BarrierEvictions() == 0 {
				t.Fatal("stream too gentle: the barrier never evicted")
			}
		})
	}
}
