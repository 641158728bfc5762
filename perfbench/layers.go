package main

import (
	"fmt"
	"os"
	"path/filepath"

	"sdpcm"
	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/din"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/serve"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
	"sdpcm/internal/vm"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// The layer replay re-drives one run's reference stream through each
// layer's public functions, with spans around the calls, so every layer's
// host time is measured from outside the program. It rebuilds the run's
// modules from the same constructors and labeled RNG children sim.Run uses,
// so it sees the same seed's streams, device contents and per-bank
// controllers; it differs from sim.Run in visiting cores round-robin for
// the first translation.

// batch is how many calls one loop span covers where calls are too cheap
// to time one by one.
const batch = 1024

// replayModule is one memory module of the replayed run.
type replayModule struct {
	scheme core.Scheme
	mcCfg  func() mc.Config // fresh per controller: policies are stateful
	devCfg pcm.Config
	link   uint64
	alloc  *alloc.Allocator
	geo    pcm.Geometry
	ctrls  []*mc.Controller // one per bank, as the run's bank plane has
}

// newReplayModules builds cfg's modules and returns the seed of its workload
// generators, drawing the labeled RNG children in sim.Run's order.
func newReplayModules(cfg sdpcm.SimConfig) ([]*replayModule, uint64, error) {
	root := rng.New(cfg.Seed)
	var mods []*replayModule
	if cfg.Topology.IsDefault() {
		m := &replayModule{
			scheme: cfg.Scheme,
			mcCfg:  func() mc.Config { return cfg.Scheme.MCConfig(cfg.WriteQueueCap) },
			devCfg: pcm.Config{Pages: cfg.MemPages, FillSeed: root.SplitLabeled("fill").Uint64()},
		}
		a, err := alloc.New(cfg.MemPages, cfg.RegionPages)
		if err != nil {
			return nil, 0, err
		}
		if err := m.build(a, root.SplitLabeled("mc")); err != nil {
			return nil, 0, err
		}
		mods = append(mods, m)
	} else {
		pls, err := cfg.Topology.Resolve(cfg.MemPages, cfg.RegionPages)
		if err != nil {
			return nil, 0, err
		}
		for i, pl := range pls {
			sub := root.SplitLabeled(fmt.Sprintf("module-%d", i))
			m, err := newTopoModule(cfg, pl, sub)
			if err != nil {
				return nil, 0, err
			}
			mods = append(mods, m)
		}
	}
	return mods, root.SplitLabeled("workload").Uint64(), nil
}

// newTopoModule mirrors one placement of a multi-module topology: its
// scheme, timing and rate overrides and link latency.
func newTopoModule(cfg sdpcm.SimConfig, pl topo.Placement, sub *rng.Rand) (*replayModule, error) {
	scheme := cfg.Scheme
	if pl.Scheme != "" {
		s, err := core.ByName(pl.Scheme, pl.ECPEntries)
		if err != nil {
			return nil, err
		}
		scheme = s
	}
	timing := pcm.DefaultTiming
	for _, o := range []struct {
		dst *int
		v   int
	}{
		{&timing.ReadCycles, pl.ReadCycles}, {&timing.SetCycles, pl.SetCycles},
		{&timing.ResetCycles, pl.ResetCycles}, {&timing.ParallelBits, pl.ParallelBits},
	} {
		if o.v > 0 {
			*o.dst = o.v
		}
	}
	m := &replayModule{
		scheme: scheme,
		mcCfg: func() mc.Config {
			c := scheme.MCConfig(cfg.WriteQueueCap)
			c.Timing = timing
			if pl.WordLineRate > 0 {
				c.Rates.WordLine = pl.WordLineRate
			}
			if pl.BitLineRate > 0 {
				c.Rates.BitLine = pl.BitLineRate
			}
			return c
		},
		devCfg: pcm.Config{Pages: pl.Pages, Banks: pl.Banks, Timing: timing, FillSeed: sub.SplitLabeled("fill").Uint64()},
		link:   uint64(pl.LinkCycles),
	}
	a, err := alloc.NewWithStrip(pl.Pages, pl.RegionPages, pl.Banks)
	if err != nil {
		return nil, err
	}
	return m, m.build(a, sub.SplitLabeled("mc"))
}

// build creates the module's device and its per-bank controllers, each on
// the labeled per-bank RNG stream the run gives it.
func (m *replayModule) build(a *alloc.Allocator, mcRng *rng.Rand) error {
	dev, err := pcm.NewDevice(m.devCfg)
	if err != nil {
		return err
	}
	m.alloc, m.geo = a, dev.Geometry()
	for _, r := range mcRng.SplitLabeledSeq("bank", dev.Banks()) {
		c, err := mc.New(m.mcCfg(), dev, a, r)
		if err != nil {
			return err
		}
		m.ctrls = append(m.ctrls, c)
	}
	return nil
}

// ctrl returns the controller owning a line.
func (m *replayModule) ctrl(a pcm.LineAddr) *mc.Controller { return m.ctrls[m.geo.Locate(a).Bank] }

// replayed is what the layer replay leaves for the metrics.
type replayed struct {
	refs   int
	rootID int // the traced path: generation, first translation, controller
	mods   []*replayModule
	// Per core: the stream, its physical lines and its write payloads.
	recs  [][]trace.Record
	lines [][]pcm.LineAddr
	muts  [][]workload.Mutation
}

// replayLayers drives cfg's stream through generation, translation and the
// controllers, then replays its writes through the write path.
func replayLayers(tr *Tracer, cfg sdpcm.SimConfig) (replayed, error) {
	mods, wseed, err := newReplayModules(cfg)
	if err != nil {
		return replayed{}, err
	}
	gens, err := cfg.Mix.Generators(wseed)
	if err != nil {
		return replayed{}, err
	}
	n, cores := cfg.RefsPerCore, len(gens)
	rp := replayed{refs: n * cores, mods: mods,
		recs: make([][]trace.Record, cores), lines: make([][]pcm.LineAddr, cores), muts: make([][]workload.Mutation, cores)}
	rp.rootID = tr.Begin("replay", 0)

	// Generation: Generator.Next, plus DrawMutation for a write, as the run
	// loop calls them.
	gen := tr.Begin("workload.gen", rp.rootID)
	for c, g := range gens {
		for k := 0; k < n; k += batch {
			m := min(batch, n-k)
			id := tr.Begin("workload.next", gen)
			for j := 0; j < m; j++ {
				r, _ := g.Next()
				rp.recs[c] = append(rp.recs[c], r)
				if r.Kind == trace.Write {
					rp.muts[c] = append(rp.muts[c], g.DrawMutation())
				}
			}
			tr.End(id, m)
		}
	}
	tr.End(gen, n*cores)

	// First translation: each call timed, so the calls that page-fault into
	// the buddy allocator get spans of their own.
	spaces := make([]*vm.AddressSpace, cores)
	for c := range spaces {
		m := mods[c%len(mods)]
		if spaces[c], err = vm.NewAddressSpace(m.alloc, m.scheme.Tag, 0); err != nil {
			return rp, err
		}
	}
	first := tr.Begin("vm.translate.first", rp.rootID)
	for k := 0; k < n; k++ {
		for c, as := range spaces {
			r := rp.recs[c][k]
			faults := as.Faults
			t0 := tr.Now()
			x, _, err := as.Translate(r.Line / pcm.LinesPerPage)
			t1 := tr.Now()
			if err != nil {
				return rp, err
			}
			if as.Faults != faults {
				tr.Leaf("alloc.fault", first, t0, t1, 1)
			}
			rp.lines[c] = append(rp.lines[c], pcm.LineOf(x.Frame, int(r.Line%pcm.LinesPerPage)))
		}
	}
	tr.End(first, n*cores)

	// Controller: cores in simulated-time order, reads blocking, writes
	// posted, link latency on both legs, then one flush per module.
	ctl := tr.Begin("mc.replay", rp.rootID)
	now := make([]uint64, cores)
	next := make([]int, cores)
	nextMut := make([]int, cores)
	for {
		c := -1
		for i := range now {
			if next[i] < n && (c < 0 || now[i] < now[c]) {
				c = i
			}
		}
		if c < 0 {
			break
		}
		r, a, m := rp.recs[c][next[c]], rp.lines[c][next[c]], mods[c%len(mods)]
		next[c]++
		now[c] += uint64(r.Gap)
		t0 := tr.Now()
		if r.Kind == trace.Read {
			done, _ := m.ctrl(a).Read(now[c]+m.link, a)
			tr.Leaf("mc.read", ctl, t0, tr.Now(), 1)
			now[c] = done + m.link
			continue
		}
		mu := rp.muts[c][nextMut[c]]
		nextMut[c]++
		ctrl := m.ctrl(a)
		ctrl.Write(now[c]+m.link, a, pcm.Line(mu.Apply([8]uint64(ctrl.LatestData(a)))))
		tr.Leaf("mc.write", ctl, t0, tr.Now(), 1)
		now[c]++
	}
	var end uint64
	for _, t := range now {
		end = max(end, t)
	}
	for _, m := range mods {
		id := tr.Begin("mc.flush", ctl)
		for _, c := range m.ctrls {
			c.Flush(end)
		}
		tr.End(id, len(m.ctrls))
	}
	tr.End(ctl, n*cores)
	tr.End(rp.rootID, n*cores)

	// Steady-state translation, every page now mapped: loop spans only.
	warm := tr.Begin("vm.translate.warm", 0)
	for k := 0; k < n; k += batch {
		m := min(batch, n-k)
		id := tr.Begin("vm.translate", warm)
		for j := k; j < k+m; j++ {
			for c, as := range spaces {
				if _, _, err := as.Translate(rp.recs[c][j].Line / pcm.LinesPerPage); err != nil {
					return rp, err
				}
			}
		}
		tr.End(id, m*cores)
	}
	tr.End(warm, n*cores)

	return rp, replayWritePath(tr, rp, cfg.Seed)
}

// replayWritePath drives the writes of module 0's cores through the write
// path's public functions one layer at a time, batch by batch, on a fresh
// device: Device.Peek of the old image, Codec.Encode, Device.Write,
// Engine.OnWrite, Device.Disturb of both bit-line neighbours and
// Table.RecordWD of their flips (an ECP-6 table; a full entry is cleared as
// a correction would). Within a batch a line written twice sees the batch's
// starting image; the replay measures cost, not behaviour.
func replayWritePath(tr *Tracer, rp replayed, seed uint64) error {
	m := rp.mods[0]
	dev, err := pcm.NewDevice(m.devCfg)
	if err != nil {
		return err
	}
	table, err := ecp.New(core.DefaultECPEntries)
	if err != nil {
		return err
	}
	codec := din.NewCodec()
	engine := wd.New(m.mcCfg().Rates, rng.New(seed).SplitLabeled("perfbench:wd"))

	var addrs []pcm.LineAddr
	var muts []workload.Mutation
	for k, nextMut := 0, make([]int, len(rp.recs)); k < rp.refs/len(rp.recs); k++ {
		for c := 0; c < len(rp.recs); c += len(rp.mods) {
			if rp.recs[c][k].Kind == trace.Write {
				addrs = append(addrs, rp.lines[c][k])
				muts = append(muts, rp.muts[c][nextMut[c]])
				nextMut[c]++
			}
		}
	}

	root := tr.Begin("writepath", 0)
	old := make([]pcm.Line, batch)
	stored := make([]pcm.Line, batch)
	res := make([]pcm.WriteResult, batch)
	outs := make([]wd.Outcome, batch)
	type victim struct {
		a    pcm.LineAddr
		mask pcm.Mask
		bits []int
	}
	var victims []victim
	for off := 0; off < len(addrs); off += batch {
		as := addrs[off:min(off+batch, len(addrs))]
		id := tr.Begin("pcm.peek", root)
		for i, a := range as {
			old[i] = dev.Peek(a)
		}
		tr.End(id, len(as))
		for i := range as {
			stored[i] = pcm.Line(muts[off+i].Apply([8]uint64(old[i])))
		}
		id = tr.Begin("din.encode", root)
		for i, a := range as {
			stored[i] = codec.Encode(a, stored[i], old[i])
		}
		tr.End(id, len(as))
		id = tr.Begin("pcm.write", root)
		for i, a := range as {
			res[i] = dev.Write(a, stored[i], pcm.NormalWrite)
		}
		tr.End(id, len(as))
		id = tr.Begin("wd.onwrite", root)
		for i, a := range as {
			outs[i] = engine.OnWrite(dev, a, old[i], stored[i], res[i].Reset, res[i].Set)
		}
		tr.End(id, len(as))

		victims = victims[:0]
		for i, a := range as {
			above, below, okA, okB := dev.Geometry().AdjacentLines(a, dev.RowsPerBank)
			if okA {
				victims = append(victims, victim{above, outs[i].Above, outs[i].Above.AppendBits(nil)})
			}
			if okB {
				victims = append(victims, victim{below, outs[i].Below, outs[i].Below.AppendBits(nil)})
			}
		}
		id = tr.Begin("pcm.disturb", root)
		for _, v := range victims {
			dev.Disturb(v.a, v.mask)
		}
		tr.End(id, len(victims))
		id = tr.Begin("ecp.record", root)
		recorded := 0
		for _, v := range victims {
			if len(v.bits) == 0 {
				continue
			}
			recorded++
			if !table.RecordWD(v.a, v.bits) {
				table.ClearWD(v.a, true)
			}
		}
		tr.End(id, recorded)
	}
	tr.End(root, len(addrs))
	fmt.Printf("replay   %d refs through next/translate/mc, %d writes of module 0 through the write path\n", rp.refs, len(addrs))
	return nil
}

// putReplay reports the per-call layer costs of the replay. clockNs is the
// clock's own share of a span timed with Now, taken off spans of one call.
func putReplay(b *bench, tot map[string]*layerTotal, clockNs float64) {
	perCall := func(metric, span, note string) {
		t := tot[span]
		v := t.perCall()
		if t != nil && t.Calls > 0 && t.Spans == t.Calls {
			v -= clockNs
			note += fmt.Sprintf(", %.0f ns clock share subtracted", clockNs)
		}
		b.put(metric, v, fmt.Sprintf("%s; %d calls in %d spans", note, t.callsOrZero(), t.spansOrZero()))
	}
	perCall("workload.next_ns", "workload.next", "Generator.Next (+DrawMutation on writes), loop spans")
	perCall("vm.translate_ns", "vm.translate", "AddressSpace.Translate, every page mapped, loop spans")
	perCall("alloc.fault_ns", "alloc.fault", "Translate calls that page-faulted into the buddy allocator")
	perCall("mc.write_ns", "mc.write", "Controller.LatestData+Write per posted write")
	perCall("mc.read_ns", "mc.read", "Controller.Read per demand read")
	flush := tot["mc.flush"]
	b.put("mc.flush_ms", float64(flush.InclNs)/1e6, fmt.Sprintf("Controller.Flush of all %d bank controllers at the end of the stream", flush.Calls))
	perCall("din.encode_ns", "din.encode", "Codec.Encode, loop spans")
	perCall("pcm.write_ns", "pcm.write", "Device.Write, loop spans")
	perCall("pcm.peek_ns", "pcm.peek", "Device.Peek, loop spans")
	perCall("pcm.disturb_ns", "pcm.disturb", "Device.Disturb of bit-line neighbours, loop spans")
	perCall("wd.onwrite_ns", "wd.onwrite", "Engine.OnWrite, loop spans")
	perCall("ecp.record_ns", "ecp.record", "Table.RecordWD (+ClearWD when full), loop spans")
}

func (t *layerTotal) callsOrZero() int {
	if t == nil {
		return 0
	}
	return t.Calls
}

func (t *layerTotal) spansOrZero() int {
	if t == nil {
		return 0
	}
	return t.Spans
}

// storeProbe times DiskStore.Store and DiskStore.Load, one span per call:
// results are stored under keys in a temporary store at dir and loaded back.
func storeProbe(b *bench, tr *Tracer, dir string, keys []string, results []sdpcm.SimResult) error {
	st, err := serve.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	root := tr.Begin("store", 0)
	for i, k := range keys {
		id := tr.Begin("store.store", root)
		err := st.Store(k, results[i])
		tr.End(id, 1)
		if err != nil {
			return err
		}
	}
	same := true
	for i, k := range keys {
		id := tr.Begin("store.load", root)
		res, ok := st.Load(k)
		tr.End(id, 1)
		same = same && ok && digest(res) == digest(results[i])
	}
	tr.End(root, 2*len(keys))
	b.check(same, "store: %d entries load back with the digest they were stored with", len(keys))

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("store probe: no entries in %s (%v)", dir, err)
	}
	var size int64
	for _, e := range entries {
		fi, err := os.Stat(e)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	tot := tr.Totals()
	b.put("store.store_ms", tot["store.store"].perCall()/1e6, fmt.Sprintf("DiskStore.Store, mean of %d", len(keys)))
	b.put("store.load_ms", tot["store.load"].perCall()/1e6, fmt.Sprintf("DiskStore.Load, mean of %d", len(keys)))
	b.put("store.entry_kb", float64(size)/float64(len(entries))/1024, fmt.Sprintf("mean entry file size, %d entries", len(entries)))
	return nil
}

// storeKeys names n store entries for one run.
func storeKeys(b *bench, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("perfbench/%s/%d/%d", b.workload, b.seed, i)
	}
	return keys
}
