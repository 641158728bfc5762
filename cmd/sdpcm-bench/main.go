// Command sdpcm-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	sdpcm-bench -exp all                  # every experiment
//	sdpcm-bench -exp fig11 -refs 100000   # the headline comparison, bigger
//	sdpcm-bench -exp fig12,fig13 -benchmarks lbm,mcf
//	sdpcm-bench -exp all -parallel 8 -progress
//
// Every experiment prints a fixed-width table (on stdout) whose rows and
// columns mirror the published figure; see EXPERIMENTS.md for
// paper-vs-measured commentary. Timing and progress go to stderr.
//
// All experiments share one sweep executor: independent simulation points
// run on -parallel workers and points shared between figures (e.g. the
// per-benchmark baseline) simulate once per invocation. Results are
// bit-identical to a sequential run regardless of -parallel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sdpcm"
	"sdpcm/internal/obs"
	"sdpcm/internal/prof"
	"sdpcm/internal/serve"
	"sdpcm/internal/topo"
)

// experiments is the shared evaluation registry — the same list the sweep
// service resolves job names against, so the -exp vocabulary and the job
// API never drift apart.
var experiments = sdpcm.Experiments()

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code instead of calling os.Exit so
// deferred cleanups (profile flushing, the observability server) run on every
// path.
func run() int {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment list, or 'all'")
		refs      = flag.Int("refs", 6000, "main-memory references per core per run (paper: 10M)")
		cores     = flag.Int("cores", 8, "cores in the CMP")
		seed      = flag.Uint64("seed", 42, "root random seed")
		bench     = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all of Table 3)")
		schemes   = flag.String("schemes", "", "comma-separated scheme roster override for fig11/fig19 (registry names; default: the published roster)")
		memMB     = flag.Int("mem-mb", 512, "simulated PCM capacity in MB")
		region    = flag.Int("region-pages", 1024, "(n:m) marking-region size in pages (paper: 16384 = 64MB)")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = all cores, 1 = sequential; results are identical)")
		progress  = flag.Bool("progress", false, "stream one line per completed simulation point to stderr")
		noCache   = flag.Bool("no-cache", false, "disable result memoization (re-simulate points shared between figures)")
		metricf   = flag.String("metrics", "", "emit the aggregated metrics snapshot after the tables: 'json' or 'table'")
		trEv      = flag.Int("trace-events", 0, "keep the last N controller events per simulation point")
		benchOut  = flag.String("bench-json", "", "write a machine-readable run record (wall time, sims, cache hits, metrics) to this file")
		listen    = flag.String("listen", "", "serve live /metrics, /progress, /events and /debug/pprof on this address (e.g. :8080) while the sweep runs")
		heatTab   = flag.Bool("heatmap", false, "append the merged WD spatial heatmap (per-bank x line-region) as an ASCII table")
		heatOut   = flag.String("heatmap-json", "", "write the merged WD spatial heatmap as JSON to this file")
		heatReg   = flag.Int("heatmap-regions", 16, "line-regions per bank in the WD heatmap")
		ckptDir   = flag.String("checkpoint-dir", "", "directory of per-point resumable checkpoints: a killed sweep rerun with the same flags resumes every in-flight point (requires -checkpoint-every)")
		ckptEvery = flag.Int("checkpoint-every", 0, "per-point checkpoint interval in processed references (0 disables)")
		storeDir  = flag.String("result-store", "", "durable result-store directory: cacheable points are answered from it and persisted back, so identical sweeps across invocations (or via sdpcm-serve) skip simulation")
		storeMaxB = flag.Int64("store-max-bytes", 0, "prune the -result-store down to this many bytes at startup, oldest entries first (0 = unbounded)")
		storeAge  = flag.Duration("store-max-age", 0, "prune -result-store entries older than this at startup (e.g. 720h; 0 = keep forever)")
		topoFile  = flag.String("topology", "", "JSON topology spec file: run every point on the multi-module simulator it describes (see DESIGN.md §9)")
		logMode   = flag.String("log", "", "structured logging to stderr: 'text' or 'json' (default: legacy plain output only)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
		return 2
	}

	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProf, Mem: *memProf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
		}
	}()

	if *metricf != "" && *metricf != "json" && *metricf != "table" {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: unknown -metrics format %q (usage: -metrics json|table)\n", *metricf)
		return 2
	}
	if (*ckptDir != "") != (*ckptEvery > 0) {
		fmt.Fprintln(os.Stderr, "sdpcm-bench: -checkpoint-dir and -checkpoint-every require each other (usage: -checkpoint-dir DIR -checkpoint-every N)")
		return 2
	}
	// One executor for the whole invocation: its memo cache spans
	// experiments, so points shared between figures simulate once.
	exec := &sdpcm.SweepRunner{
		Workers:         *parallel,
		NoCache:         *noCache,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
	}
	opts := sdpcm.ExperimentOptions{
		Base: sdpcm.SweepBase{
			RefsPerCore:    *refs,
			Cores:          *cores,
			Seed:           *seed,
			MemPages:       *memMB * 256, // 4KB pages
			RegionPages:    *region,
			CollectMetrics: *metricf != "" || *benchOut != "" || *listen != "",
			TraceEvents:    *trEv,
		},
		Exec: exec,
	}
	if *heatTab || *heatOut != "" {
		opts.HeatmapRegions = *heatReg
	}
	if *storeDir != "" {
		store, err := serve.OpenDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
			return 1
		}
		store.ConfigureGC(serve.GCPolicy{MaxBytes: *storeMaxB, MaxAge: *storeAge})
		if n, freed, err := store.Prune(time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
			return 1
		} else if n > 0 {
			logger.Info("result store pruned", "entries", n, "bytes_freed", freed)
		}
		exec.Store = store
	} else if *storeMaxB > 0 || *storeAge > 0 {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: -store-max-bytes/-store-max-age require -result-store (usage: -result-store DIR -store-max-bytes N)\n")
		return 2
	}
	if *topoFile != "" {
		spec, err := topo.Load(*topoFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v (usage: -topology spec.json; see DESIGN.md §9)\n", err)
			return 2
		}
		opts.Topology = spec
	}
	if *bench != "" {
		known := map[string]bool{}
		for _, b := range sdpcm.Benchmarks() {
			known[b] = true
		}
		for _, b := range strings.Split(*bench, ",") {
			b = strings.TrimSpace(b)
			if !known[b] {
				fmt.Fprintf(os.Stderr, "sdpcm-bench: unknown benchmark %q (usage: -benchmarks %s)\n",
					b, strings.Join(sdpcm.Benchmarks(), ","))
				return 2
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	if *schemes != "" {
		for _, s := range strings.Split(*schemes, ",") {
			s = strings.TrimSpace(s)
			if _, err := sdpcm.SchemeByName(s, 0); err != nil {
				fmt.Fprintf(os.Stderr, "sdpcm-bench: %v (usage: -schemes %s)\n",
					err, strings.Join(sdpcm.SchemeNames(), "|"))
				return 2
			}
			opts.Schemes = append(opts.Schemes, s)
		}
	}
	// One fold of every point event: the stderr stats lines, -metrics,
	// -heatmap, -heatmap-json and -bench-json all read it, and under
	// -listen it is the server's tracker, so /metrics serves its aggregate.
	prog := obs.NewProgress()
	if *listen != "" {
		srv := sdpcm.NewObsServer()
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: listening on http://%s\n", addr)
		prog = srv.Progress()
	}
	opts.Observer = prog
	if *progress {
		opts.Observer = sdpcm.SweepMulti(prog, sdpcm.SweepProgress(os.Stderr))
	}

	want := map[string]bool{}
	runAll := *exp == "all"
	if !runAll {
		for _, e := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}
	knownExp := map[string]bool{}
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		knownExp[e.Name] = true
		names = append(names, e.Name)
	}
	for name := range want {
		if !knownExp[name] {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: unknown experiment %q (usage: -exp all or -exp %s)\n",
				name, strings.Join(names, ","))
			return 2
		}
	}

	start := time.Now()
	ranExps := make([]string, 0, len(experiments))
	for _, e := range experiments {
		if !runAll && !want[e.Name] {
			continue
		}
		ranExps = append(ranExps, e.Name)
		prog.Begin(e.Name)
		expStart := time.Now()
		tb, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		fmt.Println(tb)
		fmt.Println()
		wall := time.Since(expStart).Round(time.Millisecond)
		exps := prog.Snapshot().Experiments
		c := exps[len(exps)-1]
		if c.Done > 0 {
			fmt.Fprintf(os.Stderr, "(%s completed in %v: %d points, %d simulated, %d cache hits, %d store hits, %s)\n",
				e.Name, wall, c.Done, c.Simulated(), c.Cached, c.Stored, heapString())
		} else {
			fmt.Fprintf(os.Stderr, "(%s completed in %v, %s)\n", e.Name, wall, heapString())
		}
		logger.Info("experiment done", "exp", e.Name, "wall", wall,
			"points", c.Done, "sim_runs", c.Simulated(),
			"cache_hits", c.Cached, "store_hits", c.Stored)
	}
	wall := time.Since(start)
	st := prog.Snapshot()
	if st.PointsDone > 0 {
		fmt.Fprintf(os.Stderr, "total: %d points, %d simulated, %d cache hits, %d store hits, %v wall (parallel=%d), %s\n",
			st.PointsDone, st.PointsSimulated(), st.PointsCached, st.PointsStored,
			wall.Round(time.Millisecond), *parallel, heapString())
		logger.Info("sweep done", "experiments", len(ranExps),
			"points", st.PointsDone, "sim_runs", st.PointsSimulated(),
			"cache_hits", st.PointsCached, "store_hits", st.PointsStored,
			"wall", wall.Round(time.Millisecond))
	}
	merged := prog.Metrics()
	if *metricf != "" {
		var err error
		if *metricf == "json" {
			err = merged.WriteJSON(os.Stdout)
		} else {
			err = merged.WriteTable(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	heat := prog.Heatmap()
	if *heatTab {
		fmt.Println()
		if err := sdpcm.WriteHeatmapTable(os.Stdout, heat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *heatOut != "" {
		f, err := os.Create(*heatOut)
		if err == nil {
			err = sdpcm.WriteHeatmapJSON(f, heat)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
			return 1
		}
	}
	if *benchOut != "" {
		if err := writeBenchRecord(*benchOut, ranExps, st, wall, merged); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// heapString summarises the process heap for the stderr stats lines: live
// bytes after the experiment, and the OS-claimed heap high-water mark — the
// figure that catches a memory regression long before the machine swaps.
func heapString() string {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return fmt.Sprintf("heap %.1f MB live / %.1f MB peak",
		float64(m.HeapAlloc)/(1<<20), float64(m.HeapSys)/(1<<20))
}

// benchRecord is the machine-readable run summary emitted by -bench-json —
// one point on the repository's performance trajectory (the CI bench-smoke
// job archives these as build artifacts).
type benchRecord struct {
	Experiments []string               `json:"experiments"`
	Points      int                    `json:"points"`
	SimRuns     int                    `json:"sim_runs"`
	CacheHits   int                    `json:"cache_hits"`
	WallSeconds float64                `json:"wall_seconds"`
	Metrics     *sdpcm.MetricsSnapshot `json:"metrics,omitempty"`
}

func writeBenchRecord(path string, exps []string, st sdpcm.ObsProgressSnapshot, wall time.Duration, m *sdpcm.MetricsSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(benchRecord{
		Experiments: exps,
		Points:      st.PointsDone,
		SimRuns:     st.PointsSimulated(),
		CacheHits:   st.PointsCached,
		WallSeconds: wall.Seconds(),
		Metrics:     m,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
