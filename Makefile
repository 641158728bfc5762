# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: build test race bench bench-pin bench-json golden check-golden bench-record obs-smoke resume-smoke serve-smoke fuzz lint ci

# perfbench is a module of its own (it builds the benchmark against this
# tree through a replace directive), so the root's ./... never compiles it.
# build and lint compile and vet it too, so an API change that breaks the
# benchmark fails here rather than only when the benchmark runs.
PERFBENCH_CHECK = cd perfbench && $(GO) build ./... && $(GO) vet ./...

build:
	$(GO) build ./...
	$(PERFBENCH_CHECK)

test:
	$(GO) test ./...

# The simulator's determinism tests run again on one, two and four Ps, so
# the per-core reference producers meet the race detector both sharing the
# run loop's P and running beside it.
DETERMINISM_TESTS = ^(TestDeterminism|TestShardDeterminismMatrix|TestResumeDeterminismMatrix|TestTraceReplayDeterminism|TestCheckpointFixtureBytes)$$

race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -run '$(DETERMINISM_TESTS)' ./internal/sim

# One iteration of every benchmark — a smoke test that the bench harness
# still runs, not a measurement.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The pinned data-plane benchmark set the benchstat CI gate compares
# against main. Parent names only: sub-benchmarks (WritePath/vnc, ...) run
# because go test splits the -bench regex on '/'.
BENCH_PIN = BenchmarkNewDevice$$|BenchmarkDevicePeek$$|BenchmarkDeviceWrite$$|BenchmarkDeviceDisturb$$|BenchmarkDeviceFirstTouch$$|BenchmarkDINEncode$$|BenchmarkECPRecordClear$$|BenchmarkWDInject$$|BenchmarkWritePath$$|BenchmarkDemandRead$$|BenchmarkSimulatorThroughput$$|BenchmarkSimulatorThroughputRead$$|BenchmarkGeometric$$|BenchmarkBernoulli$$|BenchmarkSampleBits$$|BenchmarkDrawMutation$$|BenchmarkTranslateMiss$$

# Print the pinned regex, so the CI bench-gate runs the same set on the
# merge base without a second copy of the list.
bench-pin:
	@echo '$(BENCH_PIN)'

# Where bench-json records the per-benchmark medians; the CI bench-gate sets
# it explicitly so the Makefile and workflow can never disagree on the name.
BENCH_OUT ?= BENCH_30.json

# Run the pinned set three times, keep the raw text (bench.txt, what
# benchstat consumes) and record per-benchmark medians as $(BENCH_OUT).
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PIN)' -benchtime 200ms -count 3 \
		./internal/pcm ./internal/din ./internal/ecp ./internal/wd ./internal/mc ./internal/rng ./internal/vm ./internal/workload . > bench.txt
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
# job) — then rerun an sdpcm-bench sweep against a warm -result-store and
# require identical tables with 0 simulated.
resume-smoke:
	./scripts/resume_smoke.sh

# Fuzz each outside-input decoder (FuzzTraceReader checks the trace reader
# and stream reader against each other), the DIN encoder against its scalar
# oracle and the geometric and bit-mask samplers against their Bernoulli-loop
# oracles, for ~20 s from its seed corpus (the CI fuzz job). go test accepts one -fuzz target per
# invocation. The FuzzResume targets' inputs are whole checkpoints (~19 KB)
# and FuzzDiskStoreLoad's are whole result-store entries, so minimizing each
# new corpus entry is capped at 2 s to leave the budget for fuzzing.
# FuzzResumeTopology, FuzzResumeReplay and FuzzResumeBarrier resume a
# two-module topology run, a trace-replay run and an in-module-barrier run
# from a checkpoint each writes at start-up.
# FuzzJobSpec drives the sdpcm-serve job-submit decoder and Validate.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 20s ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzEventKindJSON$$' -fuzztime 20s ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzResume$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzResumeTopology$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzResumeReplay$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzResumeBarrier$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDINEncode$$' -fuzztime 20s ./internal/din
	$(GO) test -run '^$$' -fuzz '^FuzzGeometric$$' -fuzztime 20s ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzSampleBits$$' -fuzztime 20s ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzTraceReader$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDiskStoreLoad$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/serve

# Emit one point of the performance trajectory (BENCH_ci.json).
bench-record:
	$(GO) run ./cmd/sdpcm-bench -exp fig11 -refs 2000 -cores 4 \
		-benchmarks gemsFDTD,lbm,mcf -mem-mb 128 -region-pages 256 \
		-metrics json -bench-json BENCH_ci.json >/dev/null

lint:
	$(GO) vet ./...
	$(PERFBENCH_CHECK)
	test -z "$$(gofmt -l .)"
	$(GO) run ./scripts/archcheck.go

ci: build lint race check-golden bench obs-smoke resume-smoke serve-smoke
