# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: build test race bench bench-json golden check-golden bench-record obs-smoke resume-smoke serve-smoke fuzz lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark — a smoke test that the bench harness
# still runs, not a measurement.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The pinned data-plane benchmark set the benchstat CI gate compares
# against main. Parent names only: sub-benchmarks (WritePath/vnc, ...) run
# because go test splits the -bench regex on '/'.
BENCH_PIN = BenchmarkDevicePeek$$|BenchmarkDeviceWrite$$|BenchmarkDeviceDisturb$$|BenchmarkDeviceFirstTouch$$|BenchmarkWDInject$$|BenchmarkWritePath$$|BenchmarkSimulatorThroughput$$

# Where bench-json records the per-benchmark medians; the CI bench-gate sets
# it explicitly so the Makefile and workflow can never disagree on the name.
BENCH_OUT ?= BENCH_14.json

# Run the pinned set three times, keep the raw text (bench.txt, what
# benchstat consumes) and record per-benchmark medians as $(BENCH_OUT).
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PIN)' -benchtime 200ms -count 3 \
		./internal/pcm ./internal/wd ./internal/mc . > bench.txt
	$(GO) run ./scripts/benchgate -emit bench.txt > $(BENCH_OUT)

# Refresh the pinned golden tables after an intentional simulator change.
golden:
	./scripts/golden.sh --update

# Regenerate the golden tables and fail on any byte difference (the CI job).
check-golden:
	./scripts/golden.sh --check

# Start sdpcm-bench -listen on a free port and scrape /metrics, /progress
# and /events mid-run; fails on any non-200 or unparsable payload.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end sweep-service check: cold sdpcm-serve run (SSE stream, per-job
# /metrics, golden-identical table), warm rerun on the same store dir with
# zero simulations, and a clean mid-job SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Kill a checkpointing sdpcm-sim run with SIGKILL at ~50%, resume it, and
# diff the output byte-for-byte against an uninterrupted run — one
# kill-and-resume per build mode, plain and -race (the CI resume-determinism
# job).
resume-smoke:
	./scripts/resume_smoke.sh

# Fuzz each outside-input decoder for ~20 s from its seed corpus (the CI fuzz
# job). go test accepts one -fuzz target per invocation. FuzzResume's inputs
# are whole checkpoints (~46 KB), so minimizing each new corpus entry is
# capped at 2 s to leave the budget for fuzzing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 20s ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzEventKindJSON$$' -fuzztime 20s ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzResume$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/sim

# Emit one point of the performance trajectory (BENCH_ci.json).
bench-record:
	$(GO) run ./cmd/sdpcm-bench -exp fig11 -refs 2000 -cores 4 \
		-benchmarks gemsFDTD,lbm,mcf -mem-mb 128 -region-pages 256 \
		-metrics json -bench-json BENCH_ci.json >/dev/null

lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) run ./scripts/archcheck.go

ci: build lint race check-golden bench obs-smoke resume-smoke serve-smoke
