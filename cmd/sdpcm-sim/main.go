// Command sdpcm-sim runs one SD-PCM simulation and prints a detailed report:
// CPI, speedup against the basic-VnC baseline, controller and device
// statistics, and the derived disturbance/lifetime metrics.
//
// Usage:
//
//	sdpcm-sim -scheme lazyc+preread -bench mcf -refs 50000
//	sdpcm-sim -scheme 1:2 -bench lbm
//	sdpcm-sim -scheme lazyc -ecp 8 -bench stream -queue 64
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sdpcm"
	"sdpcm/internal/obs"
	"sdpcm/internal/prof"
	"sdpcm/internal/topo"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code instead of calling os.Exit so
// deferred cleanups (profile flushing, the observability server) run on every
// path.
func run() int {
	var (
		scheme    = flag.String("scheme", "lazyc+preread", "scheme: "+strings.Join(sdpcm.SchemeNames(), "|"))
		bench     = flag.String("bench", "lbm", "Table 3 benchmark name")
		refs      = flag.Int("refs", 20000, "main-memory references per core")
		cores     = flag.Int("cores", 8, "cores")
		ecp       = flag.Int("ecp", sdpcm.DefaultECPEntries, "ECP entries per line for LazyC schemes")
		queue     = flag.Int("queue", 32, "write queue entries per bank")
		seed      = flag.Uint64("seed", 42, "random seed")
		topoFile  = flag.String("topology", "", "JSON topology spec file: run on the multi-module memory it describes instead of the single default DIMM (see DESIGN.md §9)")
		noBase    = flag.Bool("no-baseline", false, "skip the baseline comparison run")
		traces    = flag.String("trace", "", "comma-separated trace files to replay (one per core) instead of -bench")
		metricf   = flag.String("metrics", "", "append the run's metrics snapshot: 'json' or 'table'")
		trEv      = flag.Int("trace-events", 0, "keep the last N controller events in the metrics snapshot")
		listen    = flag.String("listen", "", "serve live /metrics, /progress, /events and /debug/pprof on this address (e.g. :8080) while the run is in flight")
		snapEv    = flag.Uint64("snapshot-interval", 0, "publish a mid-run metrics snapshot every N simulated cycles (default 1M when -listen is set)")
		perfOut   = flag.String("perfetto", "", "write the event-trace tail as Perfetto/Chrome trace-event JSON to this file (implies -trace-events when unset)")
		heatTab   = flag.Bool("heatmap", false, "append the WD spatial heatmap (per-bank x line-region) as an ASCII table")
		heatOut   = flag.String("heatmap-json", "", "write the WD spatial heatmap as JSON to this file")
		heatReg   = flag.Int("heatmap-regions", 16, "line-regions per bank in the WD heatmap")
		ckptPath  = flag.String("checkpoint", "", "periodically write a resumable sim-state checkpoint to this file (atomic replace; requires -checkpoint-every)")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint interval in processed references (0 disables)")
		resume    = flag.Bool("resume", false, "resume from the -checkpoint file when it exists; the resumed run's result is byte-identical to an uninterrupted one")
		logMode   = flag.String("log", "", "structured logging to stderr: 'text' or 'json' (default: legacy plain output only)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
		return 2
	}

	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProf, Mem: *memProf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
		}
	}()

	s, err := sdpcm.SchemeByName(*scheme, *ecp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-sim: %v (usage: -scheme %s)\n",
			err, strings.Join(sdpcm.SchemeNames(), "|"))
		return 2
	}
	if *metricf != "" && *metricf != "json" && *metricf != "table" {
		fmt.Fprintf(os.Stderr, "sdpcm-sim: unknown -metrics format %q (usage: -metrics json|table)\n", *metricf)
		return 2
	}
	if *traces == "" {
		if _, err := sdpcm.WorkloadByName(*bench); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v (usage: -bench %s)\n", err, strings.Join(sdpcm.Benchmarks(), "|"))
			return 2
		}
	}
	if *perfOut != "" && *trEv <= 0 {
		*trEv = 65536 // the timeline needs events; keep a generous tail
	}
	cfg := sdpcm.SimConfig{
		Scheme:         s,
		Mix:            sdpcm.HomogeneousMix(*bench, *cores),
		RefsPerCore:    *refs,
		WriteQueueCap:  *queue,
		MemPages:       1 << 17,
		RegionPages:    1024,
		Seed:           *seed,
		CollectMetrics: *metricf != "" || *listen != "",
		TraceEvents:    *trEv,
	}
	if *heatTab || *heatOut != "" {
		cfg.HeatmapRegions = *heatReg
	}
	if *topoFile != "" {
		spec, err := topo.Load(*topoFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v (usage: -topology spec.json; see DESIGN.md §9)\n", err)
			return 2
		}
		cfg.Topology = spec
	}
	var srv *sdpcm.ObsServer
	if *listen != "" {
		srv = sdpcm.NewObsServer()
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: listening on http://%s\n", addr)
		cfg.OnSnapshot = srv.SetSnapshot
		cfg.SnapshotInterval = *snapEv
		if cfg.SnapshotInterval == 0 {
			cfg.SnapshotInterval = 1 << 20
		}
	}
	if *traces != "" {
		streams, err := sdpcm.LoadTraceStreams(strings.Split(*traces, ",")...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Streams = streams
		cfg.Mix = sdpcm.MixSpec{}
		cfg.RefsPerCore = 1 << 40 // streams exhaust on their own
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "sdpcm-sim: -resume requires -checkpoint to name the file")
		return 2
	}
	if (*ckptPath != "") != (*ckptEvery > 0) {
		fmt.Fprintln(os.Stderr, "sdpcm-sim: -checkpoint and -checkpoint-every require each other (usage: -checkpoint FILE -checkpoint-every N)")
		return 2
	}
	if *ckptPath != "" {
		cfg.CheckpointPath = *ckptPath
		cfg.CheckpointEvery = *ckptEvery
	}
	if *resume {
		if _, err := os.Stat(*ckptPath); err == nil {
			cfg.ResumeFrom = *ckptPath
			fmt.Fprintf(os.Stderr, "resuming from %s\n", *ckptPath)
		} else {
			fmt.Fprintf(os.Stderr, "no checkpoint at %s, starting cold\n", *ckptPath)
		}
	}
	logger.Info("run starting", "scheme", s.Name, "bench", *bench,
		"refs_per_core", cfg.RefsPerCore, "cores", *cores)
	res, err := sdpcm.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	logger.Info("run complete", "scheme", res.Scheme, "bench", *bench,
		"cycles", res.Cycles, "cpi", res.CPI)

	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("workload      %s x %d cores\n", res.Mix, len(cfg.Mix.Cores)+len(cfg.Streams))
	fmt.Printf("cycles        %d\n", res.Cycles)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("CPI           %.3f\n", res.CPI)
	if *topoFile != "" && !*noBase {
		// Per-module scheme overrides would make a "baseline" rerun compare a
		// topology against itself; the comparison only names single-DIMM runs.
		*noBase = true
		fmt.Printf("speedup       n/a (baseline comparison is single-DIMM only; -topology set)\n")
	}
	if !*noBase {
		baseCfg := cfg
		baseCfg.Scheme = sdpcm.Baseline()
		// The comparison run is internal bookkeeping: don't publish its
		// snapshots or accumulate its heatmap over the main run's outputs.
		baseCfg.OnSnapshot = nil
		baseCfg.SnapshotInterval = 0
		baseCfg.HeatmapRegions = 0
		// Nor does the comparison run checkpoint or resume: its state is not
		// the main run's state.
		baseCfg.CheckpointPath = ""
		baseCfg.CheckpointEvery = 0
		baseCfg.ResumeFrom = ""
		base, err := sdpcm.Run(baseCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("speedup       %.3f (vs basic VnC baseline, CPI %.3f)\n",
			sdpcm.Speedup(base, res), base.CPI)
	}
	fmt.Println()
	fmt.Printf("memory        %d reads (%d forwarded), %d writes (%d coalesced)\n",
		res.MC.DemandReads, res.MC.ForwardedReads, res.MC.WriteRequests, res.MC.Coalesced)
	fmt.Printf("write ops     %d (%d bursty drains; %d burst ops, %d background ops)\n",
		res.MC.WriteOps, res.MC.Drains, res.MC.BurstOps, res.MC.BackgroundOps)
	fmt.Printf("VnC           %d verify reads, %d cascade reads, %d corrections (%.3f/write), %d lazy records\n",
		res.MC.VerifyReads, res.MC.CascadeReads, res.MC.CorrectionWrites,
		res.CorrectionsPerWrite(), res.MC.LazyRecords)
	fmt.Printf("PreRead       %d issued, %d forwarded, %d canceled, %d full hits\n",
		res.MC.PreReadsIssued, res.MC.PreReadsForwarded, res.MC.PreReadsCanceled, res.MC.PreReadHits)
	fmt.Printf("disturbance   %.3f word-line errors/write, %.3f bit-line errors/adjacent line (max %d)\n",
		res.WordLineErrorsPerWrite(), res.BitLineErrorsPerAdjacentLine(), res.WD.MaxBitLinePerLine)
	fmt.Printf("lifetime      data chips %.5f, ECP chip %.5f (normalised)\n",
		res.DataChipLifetime(), res.ECPChipLifetime())
	fmt.Printf("VM            %d page faults, %d TLB misses\n", res.PageFaults, res.TLBMisses)
	if len(res.Modules) > 0 {
		fmt.Println()
		for _, m := range res.Modules {
			fmt.Printf("module %-8s %s, %d banks, %d pages, link %d cycles: %d write ops, %.3f corrections/write\n",
				m.Name, m.Scheme, m.Banks, m.Pages, m.LinkCycles, m.MC.WriteOps, m.CorrectionsPerWrite())
		}
	}

	if res.Metrics != nil && *metricf != "" {
		fmt.Println()
		var err error
		if *metricf == "json" {
			err = res.Metrics.WriteJSON(os.Stdout)
		} else {
			err = res.Metrics.WriteTable(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *perfOut != "" {
		if err := writeFileWith(*perfOut, func(w io.Writer) error {
			var events []sdpcm.MetricsEvent
			if res.Metrics != nil {
				events = res.Metrics.Events
			}
			return sdpcm.WritePerfetto(w, events)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote Perfetto timeline to %s (open in ui.perfetto.dev)\n", *perfOut)
	}
	if *heatTab {
		fmt.Println()
		if err := sdpcm.WriteHeatmapTable(os.Stdout, res.Heatmap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *heatOut != "" {
		if err := writeFileWith(*heatOut, func(w io.Writer) error {
			return sdpcm.WriteHeatmapJSON(w, res.Heatmap)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-sim: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeFileWith creates path, streams fill into it and surfaces the first
// error, including Close (the write matters — it's the command's output).
func writeFileWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
