package mc

import (
	"slices"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

// checkQueueDerived asserts the derived queue state against a recount: the
// address mirror equals the queue's addresses, pending equals the open
// sides, and — unless a cancel has asked for a rescan — the PreRead rule
// holds: no open side of a queued entry has a queued neighbour.
func checkQueueDerived(t *testing.T, c *Controller) {
	t.Helper()
	for i := range c.banks {
		b := &c.banks[i]
		addrs := make([]pcm.LineAddr, len(b.wq))
		open := 0
		for j, e := range b.wq {
			addrs[j] = e.addr
			open += e.open()
		}
		if !slices.Equal(addrs, b.addrs) {
			t.Fatalf("bank %d: addrs %v, queue holds %v", i, b.addrs, addrs)
		}
		if open != b.pending {
			t.Fatalf("bank %d: pending %d, recount %d", i, b.pending, open)
		}
		if !c.cfg.PreRead || b.rescan {
			continue
		}
		for _, e := range b.wq {
			if e.verifyTop && !e.prTop && b.find(e.top) >= 0 {
				t.Fatalf("bank %d: entry %d's top side is open with line %d queued", i, e.id, e.top)
			}
			if e.verifyBelow && !e.prBelow && b.find(e.below) >= 0 {
				t.Fatalf("bank %d: entry %d's below side is open with line %d queued", i, e.id, e.below)
			}
		}
	}
}

// TestPreReadRule drives random reads and writes over a few adjacent rows of
// two banks, with a small queue so drains, forwards and cancels all happen,
// and checks the derived queue state after every call. The busy-bank issue
// pass only looks at the entries next to an enqueued line, so a missed case
// there leaves an open side with a queued neighbour and fails here.
func TestPreReadRule(t *testing.T) {
	pr := baselineCfg()
	pr.PreRead = true
	wc := pr
	wc.WriteCancel = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"preread", pr}, {"preread+wc", wc}} {
		for _, cap := range []int{4, 6} {
			cfg := tc.cfg
			cfg.WriteQueueCap = cap
			r := newRig(t, cfg)
			rnd := rng.New(uint64(cap))
			var lines []pcm.LineAddr
			for _, bank := range []int{3, 9} {
				for row := 0; row < 6; row++ { // row 0 has no top neighbour
					for slot := 0; slot < 2; slot++ {
						lines = append(lines, pcm.LineOf(pcm.PageAddr(bank+pcm.NumBanks*row), slot))
					}
				}
			}
			var now uint64
			for i := 0; i < 20000; i++ {
				now += uint64(rnd.Intn(900))
				a := lines[rnd.Intn(len(lines))]
				if rnd.Intn(3) == 0 {
					r.c.Read(now, a)
				} else {
					r.c.Write(now, a, lineWith(uint64(i)))
				}
				checkQueueDerived(t, r.c)
			}
			if stats := r.c.Stats; stats.PreReadsForwarded == 0 || stats.PreReadsCanceled == 0 || stats.PreReadsIssued == 0 || stats.Drains == 0 {
				t.Fatalf("%s cap %d: the run missed a mechanism: %+v", tc.name, cap, stats)
			}
			r.c.Flush(now)
			checkQueueDerived(t, r.c)
		}
	}
}
