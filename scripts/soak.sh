#!/usr/bin/env bash
# Two-phase soak of the resolution service (see docs/SERVICE.md).
#
# The load is cmd/rups-load's simulated fleet: two convoys of the city
# simulator streaming real 194-channel GSM context with ground truth.
# Each vehicle asks for the distance to a convoy neighbour or, for a fixed
# share of its queries, to a vehicle on the other road, whose right answer
# is Unresolved. TCP is reliable, so the loader sends each mark once;
# link-level loss and corruption are exercised on the simulated path (the
# chaos tests), not here.
#
# Phase 1 — overload: 500 connections replay the fleet at a 0.05 s pace
# against a server with 4 workers, a 64-query queue and a 16 MiB memory
# budget, with stalled clients, malformed injection, and mid-run epoch
# resets. Real
# contexts cost milliseconds of resolver CPU per query, so the resolver
# saturates. Once the server has counted a share of the load's queries
# (polled from its /metrics endpoint, not guessed with a timer), it takes
# SIGTERM and must drain gracefully under live load. The snapshot must
# prove the degradation was explicit: refusals counted, vehicles evicted
# under the memory budget, malformed input survived, queries queued at the
# seal answered, exactly one drain; the loader must have seen the DRAIN
# notice.
#
# Phase 2 — clean restart: a fresh server under the same binary and its
# default 64 MiB budget takes a paced, fault-free fleet of 48 vehicles
# (about 35 MB resident when fully uploaded). The snapshot must prove the
# failure paths stayed quiet — zero refusals, evictions, malformed, sheds
# — and the resolve-latency SLO never breached. The loader's own tally
# must show the answers are right: a floor on the share of same-road
# queries answered OK and a bound on the p90 of |d_r − truth|.
#
# Usage: scripts/soak.sh [outdir]   (default: soak-out)
set -euo pipefail

out=${1:-soak-out}
mkdir -p "$out"
addr=127.0.0.1:7841
debug=127.0.0.1:7842
# Phase 1 sends roughly 9,800 queries; SIGTERM lands once about 60% have
# reached the server, while the load is still running.
drain_after=6000
# Clean-phase gates, set from seeds 1–7 (same-road OK share 0.715–0.823,
# p90 |d_r − truth| 20.8–26.2 m) with a margin of about 0.1 and 9 m. The
# early rounds' contexts are short, and their locks are the error tail.
ok_share_floor=0.60
err_p90_bound=35

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
  -queue-cap 64 -per-conn 8 -mem-budget 16777216 \
  -metrics-snapshot "$out/soak-overload.prom" 2>"$out/server-overload.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 500 -rounds 30 -queries 2 -pace 0.05 \
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
# garbage was counted and survived, the queries queued at the seal were
# answered, and the drain ran exactly once. The resolver is saturated, so
# the queue is never empty when the drain seals it.
# rups_serve_snapshots_reused_total is only required to exist: whether a
# vehicle is queried twice between two of its frames depends on the
# load's timing. So is rups_serve_slow_disconnects_total: a client is
# kicked when a burst of acks outruns the server's writer (stalled clients
# and restreams after a reset), which depends on scheduling; a stalled
# client's own bytes fit the socket buffers. TestStalledClientKickedOverTCP
# in internal/serve pins the kick once a socket stops taking bytes.
"$out/rups-promcheck" \
  -present rups_serve_queue_depth,rups_serve_resident_bytes,rups_serve_slow_disconnects_total,rups_serve_snapshots_reused_total \
  "$out/soak-overload.prom" \
  rups_serve_connections_total \
  rups_serve_queries_total \
  rups_serve_results_total \
  rups_serve_refused_total \
  rups_serve_evictions_total \
  rups_serve_malformed_total \
  rups_serve_drained_queries_total \
  rups_serve_resolve_seconds \
  rups_serve_drains_total

echo "=== phase 2: clean restart ==="
"$out/rups-serve" -addr "$addr" -workers 4 \
  -metrics-snapshot "$out/soak-clean.prom" 2>"$out/server-clean.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 48 -rounds 12 -queries 1 -pace 0.1 \
  -require-progress >"$out/load-clean.txt"
cat "$out/load-clean.txt"

kill -TERM "$srv"
wait "$srv"

# The answers are right: enough same-road pairs lock, and the locks are
# near the ground truth. Cross-road OK answers (wrong locks) are printed
# above for the record.
field() { sed -n "s/.* $1=\([^ ]*\).*/\1/p" "$out/load-clean.txt"; }
if ! awk -v s="$(field same_road)" -v k="$(field same_road_ok)" -v n="$(field err_samples)" \
  -v p="$(field err_p90_m)" -v f="$ok_share_floor" -v b="$err_p90_bound" \
  'BEGIN { share = s > 0 ? k / s : 0
           printf "soak: same-road OK share %.3f (floor %.2f), p90 |d_r - truth| %s m over %d answers (bound %g)\n", share, f, p, n, b
           exit !(share >= f && n > 0 && p <= b) }'; then
  echo "soak: FAIL: clean-phase answers below the accuracy gates" >&2
  exit 1
fi

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
