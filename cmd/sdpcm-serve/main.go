// Command sdpcm-serve is the multi-tenant sweep service: a REST/JSON job
// API over the experiment harness, with live per-job observability and a
// durable on-disk result store shared across jobs, processes and users.
//
// Usage:
//
//	sdpcm-serve -listen :8344 -store ./sdpcm-results
//	curl -d '{"experiment":"fig11","refs_per_core":2000}' localhost:8344/api/v1/jobs
//	curl localhost:8344/api/v1/jobs/job-1/stream        # live SSE
//	curl localhost:8344/api/v1/jobs/job-1/result        # rendered table
//	curl localhost:8344/metrics                         # per-job Prometheus series
//
// Identical sweep points are answered from the durable store instead of
// re-simulating: resubmitting a finished sweep costs disk reads, not CPU.
// SIGTERM/SIGINT drain gracefully — no new jobs, running jobs finish (up
// to -drain-timeout, then cooperative cancel), in-flight HTTP completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdpcm/internal/obs"
	"sdpcm/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen       = flag.String("listen", ":8344", "HTTP listen address (host:port; :0 picks a free port)")
		storeDir     = flag.String("store", "sdpcm-results", "durable result-store directory ('' disables persistence; in-memory memoization only)")
		storeMaxB    = flag.Int64("store-max-bytes", 0, "prune the result store down to this many bytes, oldest entries first (0 = unbounded)")
		storeAge     = flag.Duration("store-max-age", 0, "prune result-store entries older than this (e.g. 720h; 0 = keep forever)")
		gcInterval   = flag.Duration("store-gc-interval", 10*time.Minute, "how often the result-store retention policy is re-applied while serving (must be positive with a retention bound)")
		maxJobs      = flag.Int("max-jobs", 2, "concurrently running jobs; further submissions queue in order")
		workers      = flag.Int("workers", 0, "concurrent simulations across all jobs (0 = all cores)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for running jobs before canceling them cooperatively")
		logMode      = flag.String("log", "text", "structured log format on stderr: 'text' or 'json'")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-serve: %v\n", err)
		return 2
	}
	retention := *storeMaxB > 0 || *storeAge > 0
	if retention && *storeDir == "" {
		fmt.Fprintf(os.Stderr, "sdpcm-serve: -store-max-bytes/-store-max-age require -store (usage: -store DIR -store-max-bytes N)\n")
		return 2
	}
	if retention && *gcInterval <= 0 {
		fmt.Fprintf(os.Stderr, "sdpcm-serve: -store-gc-interval must be positive with a retention bound (usage: -store-max-age 720h -store-gc-interval 10m)\n")
		return 2
	}
	var store *serve.DiskStore
	if *storeDir != "" {
		store, err = serve.OpenDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdpcm-serve: %v\n", err)
			return 1
		}
		if retention {
			store.ConfigureGC(serve.GCPolicy{MaxBytes: *storeMaxB, MaxAge: *storeAge})
			if n, freed, err := store.Prune(time.Now()); err != nil {
				fmt.Fprintf(os.Stderr, "sdpcm-serve: %v\n", err)
				return 1
			} else if n > 0 {
				logger.Info("result store pruned", "entries", n, "bytes_freed", freed)
			}
			stopGC := store.StartGC(*gcInterval)
			defer stopGC()
		}
	}
	mgr := serve.NewManager(serve.ManagerConfig{
		Store:   store,
		MaxJobs: *maxJobs,
		Workers: *workers,
		Logger:  logger,
	})
	srv := serve.NewServer(mgr, logger)
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-serve: %v\n", err)
		return 1
	}
	// The plain line is the machine-parseable startup handshake (scripts
	// watch for it); the slog record carries the structured context.
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s\n", addr)
	logger.Info("listening", "addr", addr, "store", *storeDir, "max_jobs", *maxJobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	logger.Info("shutdown signal received, draining", "timeout", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(dctx); err != nil {
		logger.Warn("drain deadline hit; remaining jobs were canceled", "error", err)
	}
	if err := srv.Close(); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	logger.Info("drained, exiting")
	return 0
}
