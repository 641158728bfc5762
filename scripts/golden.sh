#!/usr/bin/env bash
# Golden-table harness. Every experiment's rendered table is pinned
# byte-for-byte under testdata/golden/ at a small, fast, shape-preserving
# scale; the CI golden job regenerates them and fails on any drift.
#
#   scripts/golden.sh --check    # regenerate and diff (CI; default)
#   scripts/golden.sh --update   # refresh the pinned tables (make golden)
#
# --check also runs `-exp all` twice, sequential without the memo cache and
# on four workers with it: one executor then spans every figure, and each
# stdout must equal the pinned tables concatenated in registry order.
#
# The tables are deterministic: the sweep executor produces bit-identical
# results regardless of worker count, and every stochastic element derives
# from -seed. An intentional change to simulator behaviour is recorded by
# rerunning with --update and committing the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:---check}"

GOLDEN_FLAGS=(-refs 2000 -cores 4 -benchmarks gemsFDTD,lbm,mcf -mem-mb 128 -region-pages 256 -seed 42)
EXPS=(table1 capacity fig4 fig5 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 overhead fig-topo2)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sdpcm-bench" ./cmd/sdpcm-bench

generate() { # generate <dir>
  local dir="$1"
  mkdir -p "$dir"
  for exp in "${EXPS[@]}"; do
    "$tmp/sdpcm-bench" -exp "$exp" "${GOLDEN_FLAGS[@]}" >"$dir/$exp.txt" 2>/dev/null
  done
}

case "$mode" in
--update)
  generate testdata/golden
  echo "refreshed testdata/golden (${#EXPS[@]} tables)"
  ;;
--check)
  generate "$tmp/golden"
  status=0
  for exp in "${EXPS[@]}"; do
    if ! diff -u "testdata/golden/$exp.txt" "$tmp/golden/$exp.txt"; then
      echo "golden mismatch: $exp (run 'make golden' to accept intentional changes)" >&2
      status=1
    fi
  done
  for exp in "${EXPS[@]}"; do
    cat "testdata/golden/$exp.txt"
  done >"$tmp/all.txt"
  for exec_flags in "-parallel 1 -no-cache" "-parallel 4"; do
    "$tmp/sdpcm-bench" -exp all "${GOLDEN_FLAGS[@]}" $exec_flags >"$tmp/all-run.txt" 2>/dev/null
    if ! diff -u "$tmp/all.txt" "$tmp/all-run.txt"; then
      echo "golden mismatch: -exp all $exec_flags differs from the concatenated tables" >&2
      status=1
    fi
  done
  if [ "$status" -eq 0 ]; then
    echo "golden tables match (${#EXPS[@]} tables, and -exp all at -parallel 1 -no-cache and -parallel 4, byte-for-byte)"
  fi
  exit "$status"
  ;;
*)
  echo "usage: scripts/golden.sh [--check|--update]" >&2
  exit 2
  ;;
esac
