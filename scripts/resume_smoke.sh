#!/usr/bin/env bash
# Kill-and-resume smoke test (the CI resume-determinism job and
# `make resume-smoke`).
#
# The checkpoint/resume contract: a run killed mid-flight (SIGKILL — no
# cleanup, the checkpoint must already be durable) and resumed from its last
# checkpoint prints a report byte-identical to the uninterrupted run. This
# script enforces it end-to-end through the sdpcm-sim binary, once with a
# plain and once with a -race build, then once more (plain) on the two-module
# demo topology:
#
#   1. run to completion                          -> full.txt
#   2. run with -checkpoint, SIGKILL once the
#      checkpoint file appears (~50% of the run)
#   3. rerun with -resume                         -> resumed.txt
#   4. diff full.txt resumed.txt (byte-for-byte)
#
# The checkpoint interval is >50% of the run so the file is written exactly
# once and never overwritten — the resume always starts from mid-run state.
#
# Before the legs, each half of a checkpoint flag pair (-checkpoint or
# -checkpoint-dir without -checkpoint-every, and -checkpoint-every alone, on
# sdpcm-sim and sdpcm-bench) must exit 2 and leave no checkpoint behind.
#
# A final store leg resumes a sweep across processes through the durable
# result store: the same sdpcm-bench run twice against one -result-store
# directory must print byte-identical tables, and the second run's total
# line and every per-experiment line must report 0 simulated.
set -euo pipefail
cd "$(dirname "$0")/.."

REFS=40000
CORES=4
TOTAL=$((REFS * CORES))
EVERY=$((TOTAL / 2 + 1))
FLAGS=(-scheme all -bench mcf -refs "$REFS" -cores "$CORES" \
  -seed 9 -no-baseline -metrics json)

tmp="$(mktemp -d)"
cleanup() {
  [ -n "${SIM_PID:-}" ] && kill -9 "$SIM_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/sdpcm-sim" ./cmd/sdpcm-sim
go build -race -o "$tmp/sdpcm-sim-race" ./cmd/sdpcm-sim
go build -o "$tmp/sdpcm-bench" ./cmd/sdpcm-bench

# reject NAME BINARY [FLAGS...]: the run must exit 2 and, run in an empty
# directory, leave it empty — no checkpoint file or directory appears.
reject() {
  local name="$1" bin="$2"
  shift 2
  local dir="$tmp/reject-$name" code=0
  mkdir "$dir"
  (cd "$dir" && "$bin" "$@" >/dev/null 2>"$tmp/reject.err") || code=$?
  if [ "$code" -ne 2 ]; then
    echo "$name: exit $code, want 2" >&2
    cat "$tmp/reject.err" >&2
    exit 1
  fi
  if [ -n "$(ls -A "$dir")" ]; then
    echo "$name: rejected run left files behind: $(ls -A "$dir")" >&2
    exit 1
  fi
  echo "== $name rejected: $(head -n 1 "$tmp/reject.err")"
}

SIM_SMALL=(-bench lbm -refs 2000 -cores 2 -no-baseline)
BENCH_SMALL=(-exp fig4 -refs 2000 -cores 2 -benchmarks lbm -mem-mb 64 -region-pages 256)
reject sim-checkpoint-only "$tmp/sdpcm-sim" "${SIM_SMALL[@]}" -checkpoint run.ckpt
reject sim-every-only "$tmp/sdpcm-sim" "${SIM_SMALL[@]}" -checkpoint-every 1000
reject bench-dir-only "$tmp/sdpcm-bench" "${BENCH_SMALL[@]}" -checkpoint-dir ckpt
reject bench-every-only "$tmp/sdpcm-bench" "${BENCH_SMALL[@]}" -checkpoint-every 1000

# The two-module demo topology (topo.Demo2, the fig-topo2 layout).
cat >"$tmp/demo2.json" <<'JSON'
{"modules": [
  {"name": "near", "scheme": "vnc"},
  {"name": "far", "scheme": "lazyc", "ecp_entries": 6, "link_cycles": 600}
]}
JSON

# leg NAME BINARY [EXTRA FLAGS...]: one full run, one run killed once its
# checkpoint appears, one resumed run; the full and resumed outputs must be
# byte-identical.
leg() {
  local name="$1" bin="$2"
  shift 2
  local flags=("${FLAGS[@]}" "$@")
  echo "== $name"
  local ckpt="$tmp/$name.ckpt"

  "$bin" "${flags[@]}" >"$tmp/full.txt"

  "$bin" "${flags[@]}" -checkpoint "$ckpt" -checkpoint-every "$EVERY" >/dev/null &
  SIM_PID=$!
  # The checkpoint is published by atomic rename, so existence implies a
  # complete, loadable file. Kill the instant it appears.
  while [ ! -f "$ckpt" ]; do
    if ! kill -0 "$SIM_PID" 2>/dev/null; then
      break # finished before we could kill it; the checkpoint remains
    fi
    sleep 0.02
  done
  if [ ! -f "$ckpt" ]; then
    echo "run exited without writing a checkpoint" >&2
    exit 1
  fi
  kill -9 "$SIM_PID" 2>/dev/null || true
  wait "$SIM_PID" 2>/dev/null || true
  SIM_PID=""

  "$bin" "${flags[@]}" -checkpoint "$ckpt" -checkpoint-every "$EVERY" -resume \
    >"$tmp/resumed.txt" 2>"$tmp/resumed.err"
  grep -q "resuming from" "$tmp/resumed.err" || {
    echo "resumed run did not pick up the checkpoint:" >&2
    cat "$tmp/resumed.err" >&2
    exit 1
  }
  if ! diff -u "$tmp/full.txt" "$tmp/resumed.txt"; then
    echo "resume diverged ($name)" >&2
    exit 1
  fi
}

leg plain "$tmp/sdpcm-sim"
leg race "$tmp/sdpcm-sim-race"
leg topology "$tmp/sdpcm-sim" -topology "$tmp/demo2.json"

echo "== store"
STORE_FLAGS=(-exp fig4 -refs 500 -cores 2 -benchmarks lbm,mcf -mem-mb 64 \
  -region-pages 256 -result-store "$tmp/store")
"$tmp/sdpcm-bench" "${STORE_FLAGS[@]}" >"$tmp/store-cold.txt" 2>/dev/null
"$tmp/sdpcm-bench" "${STORE_FLAGS[@]}" >"$tmp/store-warm.txt" 2>"$tmp/store-warm.err"
if ! diff -u "$tmp/store-cold.txt" "$tmp/store-warm.txt"; then
  echo "store-served tables diverged from the simulated ones" >&2
  exit 1
fi
# Every stats line ("(EXP completed in ...: N points, ..." and "total: N
# points, ...") of the warm run must report 0 simulated.
stats="$(grep -E '^(\(.*: [0-9]+ points, |total: [0-9]+ points, )' "$tmp/store-warm.err" || true)"
if ! grep -q '^total: ' <<<"$stats" || grep -v ' points, 0 simulated, ' <<<"$stats"; then
  echo "warm store run simulated points (or printed no total line):" >&2
  cat "$tmp/store-warm.err" >&2
  exit 1
fi

echo "resume smoke OK: half-set checkpoint flags rejected; killed-and-resumed output byte-identical (plain, race and topology legs); warm store rerun identical with 0 simulated"
