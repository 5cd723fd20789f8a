#!/usr/bin/env bash
# Two-phase soak of the resolution service (see docs/SERVICE.md).
#
# Phase 1 — overload: a 500-vehicle fleet streams at roughly twice what
# the deliberately tight server bounds can absorb, with stalled clients,
# malformed injection, and mid-run epoch resets. TCP is reliable, so the
# loader sends each mark once; link-level loss and corruption are
# exercised on the simulated path (the chaos tests), not here. Once the server has counted a share of the load's
# queries (polled from its /metrics endpoint, not guessed with a timer),
# it takes SIGTERM and must drain gracefully under live load. The snapshot
# must prove the degradation was explicit: refusals counted, vehicles
# evicted under the memory budget, malformed input survived, exactly one
# drain; the loader must have seen the DRAIN notice.
#
# Phase 2 — clean restart: a fresh server under the same binary takes a
# paced, fault-free fleet. The snapshot must prove the failure paths
# stayed quiet — zero refusals, evictions, malformed, sheds — while
# queries resolved and the resolve-latency SLO never breached.
#
# Usage: scripts/soak.sh [outdir]   (default: soak-out)
set -euo pipefail

out=${1:-soak-out}
mkdir -p "$out"
addr=127.0.0.1:7841
debug=127.0.0.1:7842
# Phase 1 sends roughly 12k queries; SIGTERM lands once about half have
# reached the server, while the load is still running.
drain_after=6000

go build -o "$out/rups-serve" ./cmd/rups-serve
go build -o "$out/rups-load" ./cmd/rups-load
go build -o "$out/rups-promcheck" ./cmd/rups-promcheck

wait_ready() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "soak: server never came up on $addr" >&2
  return 1
}

# wait_queries N PID: poll the server's /metrics until
# rups_serve_queries_total reaches N. Fails if the loader (PID) exits
# first or the count never gets there, since either means SIGTERM would
# not land under live load.
wait_queries() {
  local n=0
  for _ in $(seq 1 600); do
    n=$(curl -fsS "http://$debug/metrics" 2>/dev/null |
      awk '$1 == "rups_serve_queries_total" { print int($2) }')
    if [ "${n:-0}" -ge "$1" ]; then
      echo "soak: server counted $n queries; sending SIGTERM"
      return 0
    fi
    if ! kill -0 "$2" 2>/dev/null; then
      echo "soak: load finished at ${n:-0} queries, before the drain threshold $1" >&2
      return 1
    fi
    sleep 0.05
  done
  echo "soak: server counted only ${n:-0} queries, want $1" >&2
  return 1
}

echo "=== phase 1: overload + faults + mid-run SIGTERM ==="
"$out/rups-serve" -addr "$addr" -debug-addr "$debug" -workers 4 \
  -queue-cap 64 -per-conn 8 -mem-budget 262144 \
  -metrics-snapshot "$out/soak-overload.prom" 2>"$out/server-overload.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 500 -rounds 30 -marks 6 -queries 2 -pace 0.05 \
  -malformed-every 9 -stall-every 25 -reset-every 11 \
  -require-progress >"$out/load-overload.txt" &
load=$!

wait_queries "$drain_after" "$load"
kill -TERM "$srv"
wait "$srv"
wait "$load"
cat "$out/load-overload.txt"

# The drain happened under live load: connected clients were told.
notices=$(sed -n 's/.*drain_notices=\([0-9]*\).*/\1/p' "$out/load-overload.txt")
if [ "${notices:-0}" -eq 0 ]; then
  echo "soak: FAIL: the loader saw no DRAIN notice" >&2
  exit 1
fi

# Graceful degradation, proven from the server's own counters: traffic
# flowed, overload was refused (not dropped), the memory budget evicted,
# garbage was counted and survived, and the drain ran exactly once.
# rups_serve_drained_queries_total is only required to exist: at this
# load the resolver is idle most of the time, so usually no query is
# queued or in flight at the instant the drain seals the queue and 0 is a
# correct reading. rups_serve_snapshots_reused_total is only required to
# exist as well: whether a vehicle is queried twice between two of its
# frames depends on the load's timing.
"$out/rups-promcheck" \
  -present rups_serve_drained_queries_total,rups_serve_queue_depth,rups_serve_resident_bytes,rups_serve_slow_disconnects_total,rups_serve_snapshots_reused_total \
  "$out/soak-overload.prom" \
  rups_serve_connections_total \
  rups_serve_queries_total \
  rups_serve_results_total \
  rups_serve_refused_total \
  rups_serve_evictions_total \
  rups_serve_malformed_total \
  rups_serve_resolve_seconds \
  rups_serve_drains_total

echo "=== phase 2: clean restart ==="
"$out/rups-serve" -addr "$addr" -workers 4 \
  -metrics-snapshot "$out/soak-clean.prom" 2>"$out/server-clean.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 150 -rounds 12 -marks 4 -queries 1 -pace 0.1 \
  -require-progress >"$out/load-clean.txt"
cat "$out/load-clean.txt"

kill -TERM "$srv"
wait "$srv"

# The clean phase is the control: the failure paths must stay at zero
# (instrumented but silent), queries must resolve, and the resolve-latency
# SLO must carry traffic without a single breach.
"$out/rups-promcheck" \
  -zero rups_serve_refused_total,rups_serve_evictions_total,rups_serve_malformed_total,rups_serve_queries_shed_total,rups_serve_slow_disconnects_total,rups_slo_resolve_latency_breaches_total \
  -slo resolve_latency \
  "$out/soak-clean.prom" \
  rups_serve_connections_total \
  rups_serve_queries_total \
  rups_serve_results_total \
  rups_serve_resolve_seconds \
  rups_serve_drains_total

echo "soak: both phases held"
