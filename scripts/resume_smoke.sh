#!/usr/bin/env bash
# Kill-and-resume smoke test (the CI resume-determinism job and
# `make resume-smoke`).
#
# The checkpoint/resume contract: a run killed mid-flight (SIGKILL — no
# cleanup, the checkpoint must already be durable) and resumed from its last
# checkpoint prints a report byte-identical to the uninterrupted run. This
# script enforces it end-to-end through the sdpcm-sim binary, once with a
# plain and once with a -race build:
#
#   1. run to completion                          -> full.txt
#   2. run with -checkpoint, SIGKILL once the
#      checkpoint file appears (~50% of the run)
#   3. rerun with -resume                         -> resumed.txt
#   4. diff full.txt resumed.txt (byte-for-byte)
#
# The checkpoint interval is >50% of the run so the file is written exactly
# once and never overwritten — the resume always starts from mid-run state.
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

for mode in plain race; do
  bin="$tmp/sdpcm-sim"
  [ "$mode" = race ] && bin="$tmp/sdpcm-sim-race"
  echo "== $mode"
  ckpt="$tmp/$mode.ckpt"

  "$bin" "${FLAGS[@]}" >"$tmp/full.txt"

  "$bin" "${FLAGS[@]}" -checkpoint "$ckpt" -checkpoint-every "$EVERY" >/dev/null &
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

  "$bin" "${FLAGS[@]}" -checkpoint "$ckpt" -checkpoint-every "$EVERY" -resume \
    >"$tmp/resumed.txt" 2>"$tmp/resumed.err"
  grep -q "resuming from" "$tmp/resumed.err" || {
    echo "resumed run did not pick up the checkpoint:" >&2
    cat "$tmp/resumed.err" >&2
    exit 1
  }
  if ! diff -u "$tmp/full.txt" "$tmp/resumed.txt"; then
    echo "resume diverged ($mode)" >&2
    exit 1
  fi
done
echo "resume smoke OK: killed-and-resumed output byte-identical (plain and race builds)"
