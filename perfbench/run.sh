#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload mcf-write --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, span and layer files, and temporary result stores. The build needs
# the repository's module one directory up, so outside a checkout it fails
# before any measurement.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS="-mod=mod -buildvcs=false" \
  GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" . >&2

exec "$out/perfbench" --out "$out/perfbench-out" "$@"
