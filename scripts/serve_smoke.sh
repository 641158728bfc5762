#!/usr/bin/env bash
# Sweep-service smoke test (the CI serve-smoke step and `make serve-smoke`).
#
# End-to-end proof of the sdpcm-serve contract across two server processes
# sharing one durable store directory:
#
#   1. Cold server: submit fig11 at the golden scale, follow the SSE stream
#      (point events + terminal status), check the per-job Prometheus
#      series on /metrics, and byte-compare the fetched result table
#      against testdata/golden/fig11.txt.
#   2. SIGTERM must drain cleanly: exit status 0.
#   3. Warm server on the same -store dir: the identical submission must
#      finish with sim_runs == 0 and store_hits == points — every sweep
#      point answered from disk — and serve a byte-identical table.
#   4. SIGTERM with a job still running (fresh store, nothing cached) must
#      drain it to completion and still exit 0.
#
# First, a retention bound with a non-positive -store-gc-interval must be
# refused as a usage error (exit 2, one-line hint), never a panic.
#
# The server prints "serve: listening on http://ADDR" to stderr, so the
# script needs no free-port guessing.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/sdpcm-serve" ./cmd/sdpcm-serve

### Usage check: a zero GC interval under a retention bound.
rc=0
timeout 10 "$tmp/sdpcm-serve" -listen 127.0.0.1:0 -store "$tmp/store-gc" \
  -store-max-age 1h -store-gc-interval 0 2>"$tmp/stderr-gc.txt" || rc=$?
if [ "$rc" -ne 2 ] || grep -q '^panic:' "$tmp/stderr-gc.txt" ||
  ! grep -q -- '-store-gc-interval must be positive' "$tmp/stderr-gc.txt"; then
  echo "zero -store-gc-interval: exit $rc, want 2 with a usage hint and no panic:" >&2
  cat "$tmp/stderr-gc.txt" >&2
  exit 1
fi

store="$tmp/store"
start_server() { # $1 = stderr log file
  "$tmp/sdpcm-serve" -listen 127.0.0.1:0 -store "$store" -log text \
    2>"$1" &
  SERVE_PID=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's|^serve: listening on http://||p' "$1" | head -1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "sdpcm-serve exited before listening:" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "sdpcm-serve never printed its listen address" >&2
    exit 1
  fi
}

# The golden fig11 sweep: same knobs as scripts/golden.sh, so the served
# table must match testdata/golden/fig11.txt byte-for-byte (the golden file
# carries one extra trailing newline from the generator's spacer Println).
spec='{"experiment":"fig11","refs_per_core":2000,"cores":4,"mem_mb":128,"region_pages":256,"benchmarks":["gemsFDTD","lbm","mcf"],"seed":42}'

submit() { # prints the job id
  curl -fsS -X POST -d "$spec" "http://$addr/api/v1/jobs" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

wait_done() { # $1 = job id, $2 = status file to fill
  for _ in $(seq 1 600); do
    curl -fsS "http://$addr/api/v1/jobs/$1" >"$2"
    state="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["state"])' "$2")"
    case "$state" in
      done) return 0 ;;
      failed | canceled)
        echo "job $1 ended in state $state:" >&2
        cat "$2" >&2
        exit 1
        ;;
    esac
    sleep 0.5
  done
  echo "job $1 never finished" >&2
  exit 1
}

stop_server() { # SIGTERM must drain to exit 0
  kill -TERM "$SERVE_PID"
  rc=0
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=""
  if [ "$rc" -ne 0 ]; then
    echo "sdpcm-serve exited $rc on SIGTERM (want clean drain)" >&2
    exit 1
  fi
}

### Pass 1: cold store — the job simulates, streams, and persists.
start_server "$tmp/stderr1.txt"
echo "cold server at http://$addr"

job="$(submit)"
curl -fsSN "http://$addr/api/v1/jobs/$job/stream" >"$tmp/sse.txt" &
SSE_PID=$!
wait_done "$job" "$tmp/status1.json"
wait "$SSE_PID" || { echo "SSE stream did not close cleanly" >&2; exit 1; }

# The stream must carry per-point events and a terminal done status.
grep -q '^event: point$' "$tmp/sse.txt" || {
  echo "SSE stream carried no point events:" >&2
  cat "$tmp/sse.txt" >&2
  exit 1
}
grep '^event: status$' -A1 "$tmp/sse.txt" | grep -q '"state":"done"' || {
  echo "SSE stream never reported state done:" >&2
  cat "$tmp/sse.txt" >&2
  exit 1
}

# The cold run must have actually simulated.
python3 - "$tmp/status1.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["points"] > 0, s
assert s["sim_runs"] > 0, ("cold run answered from a supposedly empty store", s)
EOF

# /metrics: job-labeled sweep series plus the service self-metrics.
curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt"
grep -q "job=\"$job\"" "$tmp/metrics.txt" || {
  echo "/metrics carries no job=\"$job\" labels" >&2
  exit 1
}
grep -q '^sdpcm_build_info{' "$tmp/metrics.txt" || {
  echo "/metrics carries no sdpcm_build_info" >&2
  exit 1
}
grep -q '^sdpcm_serve_jobs{state="done"} 1$' "$tmp/metrics.txt" || {
  echo "/metrics does not count the finished job:" >&2
  grep '^sdpcm_serve_jobs' "$tmp/metrics.txt" >&2
  exit 1
}

# The served table must be the golden fig11 table, byte for byte.
curl -fsS "http://$addr/api/v1/jobs/$job/result" >"$tmp/result1.txt"
python3 - "$tmp/result1.txt" testdata/golden/fig11.txt <<'EOF'
import sys
served = open(sys.argv[1], "rb").read()
golden = open(sys.argv[2], "rb").read()
assert golden == served + b"\n", "served fig11 table differs from testdata/golden/fig11.txt"
EOF

stop_server

### Pass 2: warm store — the same submission must not simulate at all.
start_server "$tmp/stderr2.txt"
echo "warm server at http://$addr"

job="$(submit)"
wait_done "$job" "$tmp/status2.json"
python3 - "$tmp/status2.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["points"] > 0, s
assert s["sim_runs"] == 0, ("warm resubmission re-simulated", s)
assert s["store_hits"] == s["points"], ("not every point came from the durable store", s)
EOF

curl -fsS "http://$addr/api/v1/jobs/$job/result" >"$tmp/result2.txt"
cmp -s "$tmp/result1.txt" "$tmp/result2.txt" || {
  echo "warm result differs from cold result" >&2
  exit 1
}

stop_server

### Pass 3: SIGTERM mid-job — the drain must finish the work and exit 0.
store="$tmp/store-drain"
start_server "$tmp/stderr3.txt"
echo "drain server at http://$addr"

job="$(submit)"
stop_server
grep -q 'drained, exiting' "$tmp/stderr3.txt" || {
  echo "drain server never logged a clean drain:" >&2
  cat "$tmp/stderr3.txt" >&2
  exit 1
}

echo "serve smoke OK: zero GC interval refused; cold run streamed and persisted; warm run was sim-free and byte-identical; mid-job SIGTERM drained cleanly"
