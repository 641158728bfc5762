package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sdpcm"
	"sdpcm/internal/topo"
	"sdpcm/internal/trace"
)

// simWorkload is a workload made of whole sim.Run calls on one
// configuration. A measured pass is one sim.Run of refsPerCore references
// per core; passes repeat until --seconds have elapsed.
type simWorkload struct {
	name        string
	bench       string // the Table 3 benchmark every core runs
	refsPerCore int
	// digest pins the Result of one pass at seed 42.
	digest string
	config func(seed uint64) (sdpcm.SimConfig, error)
}

const (
	memPages    = 1 << 21 // the default 8 GB device
	regionPages = 16384   // the default 64 MB marking region
	// minPasses is the fewest measured passes a run reports.
	minPasses = 3
	// integrityRefs is the per-core length of the integrity-checked run.
	integrityRefs = 4000
	// trafficRefs is the length of the captured prefix the traffic check
	// summarises.
	trafficRefs = 50000
	// trafficTolerance is how far measured RPKI/WPKI may sit from Table 3.
	trafficTolerance = 0.15
)

// mcfWrite: mcf has the highest write rate of Table 3 and a footprint far
// beyond the host's last-level cache, so the write path (mc, din, wd, ecp,
// pcm) does most of the work.
var mcfWrite = simWorkload{
	name:        "mcf-write",
	bench:       "mcf",
	refsPerCore: 25000,
	digest:      "793b966298ecf523",
	config: func(seed uint64) (sdpcm.SimConfig, error) {
		return sdpcm.SimConfig{
			Scheme:      sdpcm.AllThree(sdpcm.DefaultECPEntries, sdpcm.Tag23),
			Mix:         sdpcm.HomogeneousMix("mcf", 8),
			MemPages:    memPages,
			RegionPages: regionPages,
			Seed:        seed,
		}, nil
	},
}

// demo2Topology is the two-module demo (near VnC + far LazyC/ECP-6 behind a
// 600-cycle link) written as the topology JSON a user would submit.
const demo2Topology = `{"modules": [
  {"name": "near", "scheme": "vnc"},
  {"name": "far", "scheme": "lazyc", "ecp_entries": 6, "link_cycles": 600}
]}`

// bwavesReadTopo2: bwaves is read-dominated and mostly sequential, so the
// write-path layers idle while generation, translation, the controller's
// read path and the multi-module run loop dominate.
var bwavesReadTopo2 = simWorkload{
	name:        "bwaves-read-topo2",
	bench:       "bwaves",
	refsPerCore: 150000,
	digest:      "0d4e796618e1f7f6",
	config: func(seed uint64) (sdpcm.SimConfig, error) {
		spec, err := topo.ParseSpec([]byte(demo2Topology))
		if err != nil {
			return sdpcm.SimConfig{}, err
		}
		return sdpcm.SimConfig{
			Scheme:      sdpcm.Baseline(),
			Mix:         sdpcm.HomogeneousMix("bwaves", 8),
			Topology:    spec,
			MemPages:    memPages,
			RegionPages: regionPages,
			Seed:        seed,
		}, nil
	},
}

// digest is a short hash of a Result's JSON form. ExecMetrics, the one
// timing-dependent field, is excluded from JSON by the program.
func digest(res sdpcm.SimResult) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// timedRun runs one simulation and returns its wall time.
func timedRun(b *bench, cfg sdpcm.SimConfig) (sdpcm.SimResult, time.Duration, error) {
	start := time.Now()
	res, err := sdpcm.Run(cfg)
	wall := time.Since(start)
	b.ops.note(err)
	return res, wall, err
}

func (w simWorkload) run(b *bench) error {
	cfg, err := w.config(b.seed)
	if err != nil {
		return err
	}
	cfg.RefsPerCore = w.refsPerCore
	w.checkTraffic(b, cfg)
	if b.trace {
		return w.traced(b, cfg)
	}

	// No write-disturbance error may escape VnC: a short run of the same
	// configuration with the integrity shadow on.
	check := cfg
	check.RefsPerCore = integrityRefs
	check.CheckIntegrity = true
	_, _, err = timedRun(b, check)
	b.check(err == nil, "integrity: every line reads back as written (%d refs/core): err=%v", integrityRefs, err)

	// The first pass of a fresh process runs slower (heap growth); it is
	// reported but not part of refs_per_s.
	refs := float64(cfg.RefsPerCore * len(cfg.Mix.Cores))
	runtime.GC()
	first, firstWall, err := timedRun(b, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	want := digest(first)

	// Set-up: the same configuration at 1 ref/core builds the device,
	// allocator, per-bank controllers and generators and simulates nothing
	// else. One set-up rep runs before each pass, so both sample the host
	// over the same stretch of time. Each rep starts with the heap returned
	// to the OS and each pass after a collection, so every rep and every
	// pass starts from the same state.
	one := cfg
	one.RefsPerCore = 1
	var rates, setup []float64
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	same := true
	for len(rates) < minPasses || time.Now().Before(deadline) {
		debug.FreeOSMemory()
		if _, wall, err := timedRun(b, one); err == nil {
			setup = append(setup, wall.Seconds())
		}
		runtime.GC()
		res, wall, err := timedRun(b, cfg)
		if err != nil {
			continue
		}
		rates = append(rates, refs/wall.Seconds())
		same = same && digest(res) == want
	}

	b.check(same, "determinism: %d passes reproduce the first pass's Result %s", len(rates), want)
	if b.seed == 42 {
		b.check(want == w.digest, "pinned Result digest at seed 42: got %s want %s", want, w.digest)
	}
	b.check(first.MC.WriteOps > 0 && first.Instructions > 0, "the run simulated work: %d instructions, %d write ops",
		first.Instructions, first.MC.WriteOps)
	if len(first.Modules) > 0 {
		var total uint64
		for _, m := range first.Modules {
			total += m.MC.WriteOps
		}
		for _, m := range first.Modules {
			fmt.Printf("modules  %-5s %-22s writes %9d (%.1f%%)  corrections/write %.4f\n", m.Name, m.Scheme,
				m.MC.WriteOps, 100*float64(m.MC.WriteOps)/float64(max(total, 1)), m.CorrectionsPerWrite())
		}
		b.check(len(first.Modules) == 2 && first.Modules[0].MC.WriteOps > 0 && first.Modules[1].MC.WriteOps > 0,
			"topology: both modules of the demo topology took writes")
	}

	lo, hi := quantile(rates, 0.25), quantile(rates, 0.75)
	b.put("refs_per_s", median(rates), fmt.Sprintf("median of %d passes of %.0f refs (IQR %.3g–%.3g); fresh-process first pass %.3f s excluded",
		len(rates), refs, lo, hi, firstWall.Seconds()))
	b.put("setup_s", median(setup), fmt.Sprintf("median of %d runs at 1 ref/core, one before each pass", len(setup)))
	b.put("peak_rss_mb", peakRSSMB(), "process peak RSS (getrusage), n=1")
	return nil
}

// checkTraffic verifies the traffic the workload relies on instead of
// assuming it: a captured prefix of the benchmark's stream must show Table 3's
// read and write intensity.
func (w simWorkload) checkTraffic(b *bench, cfg sdpcm.SimConfig) {
	spec, err := sdpcm.WorkloadByName(w.bench)
	if err != nil {
		b.check(false, "traffic: %v", err)
		return
	}
	recs, err := sdpcm.CaptureWorkload(w.bench, trafficRefs, b.seed)
	if err != nil {
		b.check(false, "traffic: %v", err)
		return
	}
	st := trace.Summarize(recs)
	fmt.Printf("traffic  %s: RPKI %.2f (Table 3 %.2f)  WPKI %.2f (Table 3 %.2f)  writes %.1f%% of refs  %d distinct pages in a %d-ref prefix (footprint %d)\n",
		w.bench, st.RPKI(), spec.RPKI, st.WPKI(), spec.WPKI, 100*float64(st.Writes)/float64(st.Records),
		st.Pages, st.Records, spec.FootprintPages)
	near := func(got, want float64) bool { return math.Abs(got-want) <= trafficTolerance*want }
	b.check(near(st.RPKI(), spec.RPKI) && near(st.WPKI(), spec.WPKI),
		"traffic: measured RPKI/WPKI within %.0f%% of Table 3", 100*trafficTolerance)
	if cfg.Topology != nil {
		b.check(cfg.Topology.Canon() == topo.Demo2().Canon(),
			"topology: the parsed JSON is the two-module demo (%s)", cfg.Topology.Canon())
	}
}

// traced is the --trace 1 run: untraced passes for sim.run_s and the
// metrics-collection ratio, the exact counts of the real Result, then the
// layer replays with spans.
func (w simWorkload) traced(b *bench, cfg sdpcm.SimConfig) error {
	tr := NewTracer(fmt.Sprintf("%s-seed%d", w.name, b.seed))
	if _, _, err := timedRun(b, cfg); err != nil { // warm the process like the untraced run does
		return err
	}
	runNs, rp, last, err := traceSim(b, tr, cfg)
	if err != nil {
		return err
	}
	b.put("trace.overhead", runNs/float64(tr.Span(rp.rootID).dur()),
		"traced replay refs/s ÷ untraced sim.Run refs/s, same stream")

	dir, err := os.MkdirTemp(b.out, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := storeKeys(b, storeEntries)
	results := make([]sdpcm.SimResult, len(keys))
	for i := range results {
		results[i] = last
	}
	if err := storeProbe(b, tr, dir, keys, results); err != nil {
		return err
	}
	return b.writeTrace(tr)
}

// storeEntries is how many entries the store probe of a sim workload writes.
const storeEntries = 16

// traceSim measures the simulator layers on cfg: untraced sim.Run passes
// with and without metrics collection, the exact counts of the real Result,
// and the layer replay of the same stream. It returns the median untraced
// pass time in ns, the replay, and the last untraced Result.
func traceSim(b *bench, tr *Tracer, cfg sdpcm.SimConfig) (float64, replayed, sdpcm.SimResult, error) {
	var off, on []float64
	var last sdpcm.SimResult
	for i := 0; i < minPasses; i++ {
		for _, collect := range []bool{false, true} {
			c := cfg
			c.CollectMetrics = collect
			name := "sim.run"
			if collect {
				name = "sim.run.metrics"
			}
			id := tr.Begin(name, 0)
			res, err := sdpcm.Run(c)
			tr.End(id, 1)
			b.ops.note(err)
			if err != nil {
				return 0, replayed{}, res, err
			}
			d := float64(tr.Span(id).dur())
			if collect {
				on = append(on, d)
			} else {
				off = append(off, d)
				last = res
			}
		}
	}
	runNs := median(off)
	b.put("sim.run_s", runNs/1e9, fmt.Sprintf("median of %d untraced sim.Run passes (inclusive)", len(off)))
	b.put("metrics.collect_overhead", median(on)/runNs, fmt.Sprintf("median sim.Run wall with CollectMetrics ÷ without, %d passes each", len(on)))
	putCounts(b, last, uint64(cfg.RefsPerCore*len(cfg.Mix.Cores)))

	rp, err := replayLayers(tr, cfg)
	if err != nil {
		return 0, rp, last, err
	}
	tot := tr.Totals()
	clock := tr.clockNs()
	putReplay(b, tot, clock)
	// What the run loop spends beyond the layers it calls: the untraced run
	// minus the replayed layer time of the same stream, per reference.
	var layers float64
	for _, name := range []string{"workload.next", "vm.translate", "alloc.fault", "mc.read", "mc.write", "mc.flush"} {
		if t := tot[name]; t != nil {
			layers += float64(t.InclNs)
			if t.Calls > 0 && t.Spans == t.Calls {
				layers -= clock * float64(t.Calls)
			}
		}
	}
	b.put("sim.replay_self_ns", (runNs-layers)/float64(rp.refs),
		"(sim.run − replayed next+translate+fault+mc time) ÷ refs, one stream")
	return runNs, rp, last, nil
}

// putCounts reports the exact counts of a real run's Result of refs
// references.
func putCounts(b *bench, r sdpcm.SimResult, refs uint64) {
	per := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	w := r.MC.WriteOps
	src := "exact, from the untraced run's Result"
	b.put("mc.write_ops", float64(w), src)
	b.put("mc.verify_reads_per_write", per(r.MC.VerifyReads, w), src)
	b.put("mc.corrections_per_write", per(r.MC.CorrectionWrites, w), src)
	b.put("mc.preread_hit_ratio", per(r.MC.PreReadHits, w), src)
	b.put("mc.coalesced_ratio", per(r.MC.Coalesced, r.MC.WriteRequests), src)
	b.put("wd.bitline_flips_per_write", per(r.WD.BitLineFlips, r.WD.WritesObserved), src)
	b.put("ecp.lazy_records_per_write", per(r.MC.LazyRecords, w), src)
	b.put("pcm.cell_writes_per_write", per(r.Dev.CellWrites(), w), src)
	b.put("vm.tlb_miss_ratio", per(r.TLBMisses, refs), src+" (one TLB lookup per reference)")
	var far uint64
	for _, m := range r.Modules {
		if m.LinkCycles > 0 {
			far += m.MC.WriteOps
		}
	}
	b.put("topo.far_write_share", per(far, w), src+" (writes to linked modules)")
	b.put("sim.cpi", r.CPI, "simulated; the model is unvalidated against hardware")
}
