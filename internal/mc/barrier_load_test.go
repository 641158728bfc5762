package mc_test

import (
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/sim"
	"sdpcm/internal/workload"
)

// A full sim run under the barrier buffers, evicts and drains repairs;
// CheckIntegrity proves no disturbance error escapes the barrier — reads
// see corrected data while repairs are buffered, and the final drain
// leaves the array clean. The eviction and drain checks read one
// controller driven with same-bank traffic.
func TestBarrierIntegrityUnderLoad(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Scheme:         core.IMDB(0),
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

	c, _ := newController(t, core.IMDB(0).MCConfig(8))
	rnd := rng.New(3)
	var now uint64
	for range 2000 {
		// Pages 0, 16, 32 and 48 are adjacent rows of bank 0, so their
		// writes disturb one another into one victim buffer.
		addr := pcm.LineOf(pcm.PageAddr(16*rnd.Intn(4)), rnd.Intn(pcm.LinesPerPage))
		var data pcm.Line
		for w := range data {
			data[w] = rnd.Uint64()
		}
		c.Write(now, addr, data)
		now += 500
	}
	if c.BarrierEvictions() == 0 {
		t.Fatal("same-bank traffic never evicted; eviction path untested")
	}
	c.Flush(now)
	if n := c.BarrierBuffered(); n != 0 {
		t.Fatalf("%d repairs still buffered after flush", n)
	}
}
