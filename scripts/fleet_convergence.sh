#!/usr/bin/env bash
# Fleet-convergence check: three sodad replicas, each with its own
# -data-dir, replicating feedback over /cluster/pull. Feedback is applied
# to ONE replica only; one of the others is SIGKILLed mid-sync (a hard
# crash: no graceful shutdown, no final snapshot) and restarted from its
# own data dir; afterwards every replica must answer /search with
# byte-identical responses. This is the end-to-end proof of the cluster
# subsystem's contract (record identity + canonical fold + WAL persistence
# of pulled records); the in-process variant lives in
# internal/server/cluster_test.go.
#
# Usage: scripts/fleet_convergence.sh [workdir]
# Requires: curl, jq, a built ./sodad (or set SODAD=path).
set -euo pipefail

SODAD=${SODAD:-./sodad}
WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR" # the replicas' logs are redirected into it
BASE_PORT=${BASE_PORT:-18180}
QUERY='{"query": "customers Zürich financial instruments"}'
N=3

ADDRS=()
for i in $(seq 0 $((N - 1))); do
  ADDRS+=("127.0.0.1:$((BASE_PORT + i))")
done
PIDS=(0 0 0)

peers_of() { # i -> comma-separated peer URLs
  local i=$1 out=()
  for j in $(seq 0 $((N - 1))); do
    if [ "$j" != "$i" ]; then out+=("http://${ADDRS[$j]}"); fi
  done
  local IFS=,
  echo "${out[*]}"
}

boot() { # i
  local i=$1
  "$SODAD" -addr "${ADDRS[$i]}" -world minibank \
    -data-dir "$WORKDIR/data$i" -replica-id "r$i" \
    -peers "$(peers_of "$i")" -sync-interval 50ms \
    -access-log "$WORKDIR/access$i.log" \
    >"$WORKDIR/replica$i.log" 2>&1 &
  PIDS[$i]=$!
}

wait_healthy() { # addr
  for _ in $(seq 1 100); do
    if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "sodad did not become healthy on $1" >&2
  return 1
}

feedback() { # addr query result like
  curl -sf -X POST "http://$1/feedback" \
    -d "{\"query\": \"$2\", \"result\": $3, \"like\": $4}" |
    jq -e '.ok == true' >/dev/null
}

cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== boot the fleet =="
for i in $(seq 0 $((N - 1))); do boot "$i"; done
for a in "${ADDRS[@]}"; do wait_healthy "$a"; done

echo "== feedback to replica 0 only =="
feedback "${ADDRS[0]}" "customers Zürich financial instruments" 1 true
feedback "${ADDRS[0]}" "wealthy customers" 0 false

echo "== SIGKILL replica 1 mid-sync (no graceful shutdown) =="
feedback "${ADDRS[0]}" "customer" 0 true
kill -9 "${PIDS[1]}"
wait "${PIDS[1]}" 2>/dev/null || true

echo "== more feedback while replica 1 is down =="
feedback "${ADDRS[0]}" "customer" 0 true
feedback "${ADDRS[0]}" "customers Zürich" 0 false

echo "== restart replica 1 from its own data dir =="
boot 1
wait_healthy "${ADDRS[1]}"

echo "== wait for identical applied vectors fleet-wide =="
converged=0
for _ in $(seq 1 200); do
  vecs=$(for a in "${ADDRS[@]}"; do
    curl -sf "http://$a/healthz" | jq -cS '.cluster.vector'
  done | sort -u)
  if [ "$(echo "$vecs" | wc -l)" = 1 ] && [ "$vecs" != "null" ]; then
    converged=1
    break
  fi
  sleep 0.1
done
if [ "$converged" != 1 ]; then
  echo "fleet did not converge; vectors:" >&2
  for a in "${ADDRS[@]}"; do curl -sf "http://$a/healthz" | jq -c '.cluster.vector' >&2; done
  exit 1
fi

echo "== assert byte-identical /search on every replica =="
for i in $(seq 0 $((N - 1))); do
  curl -sf -X POST "http://${ADDRS[$i]}/search" -d "$QUERY" >"$WORKDIR/search$i.json"
done
for i in $(seq 1 $((N - 1))); do
  if ! cmp "$WORKDIR/search0.json" "$WORKDIR/search$i.json"; then
    echo "search output differs between replica 0 and replica $i" >&2
    diff <(jq . "$WORKDIR/search0.json") <(jq . "$WORKDIR/search$i.json") >&2 || true
    exit 1
  fi
done

echo "== assert healthz reports peer lag fields =="
curl -sf "http://${ADDRS[0]}/healthz" |
  jq -e '.cluster.replica_id == "r0" and (.cluster.peers | length) == 2 and (.cluster.peers[0].last_contact != null)' >/dev/null ||
  { echo "healthz cluster block incomplete" >&2; exit 1; }

echo "== assert /metrics lag gauges return to 0 on every replica =="
# Converged vectors mean every peer's records are applied, but the gauge
# reads the status of the *last* pull — give the pollers a few rounds.
metric() { # addr series-regex -> value of the first matching series
  curl -sf "http://$1/metrics" | awk "/$2/ {print \$2; exit}"
}
for a in "${ADDRS[@]}"; do
  lag_zero=0
  for _ in $(seq 1 100); do
    max=$(curl -sf "http://$a/metrics" |
      awk '/^soda_cluster_peer_records_behind\{/ {if ($2+0 > m) m = $2+0} END {print m+0}')
    if [ "$max" = 0 ]; then lag_zero=1; break; fi
    sleep 0.1
  done
  if [ "$lag_zero" != 1 ]; then
    echo "replica $a still reports replication lag:" >&2
    curl -sf "http://$a/metrics" | grep '^soda_cluster_peer_records_behind' >&2
    exit 1
  fi
done

echo "== assert pipeline step histogram counts agree with each other =="
# Every cold pipeline run passes through all five steps, so their sample
# counts must be identical (and nonzero: each replica served at least the
# byte-identity search above plus feedback-handler searches).
for a in "${ADDRS[@]}"; do
  counts=$(curl -sf "http://$a/metrics" |
    awk '/^soda_pipeline_step_seconds_count\{step="(lookup|rank|tables|filters|sqlgen)"\}/ {print $2}' | sort -u)
  if [ "$(echo "$counts" | wc -l)" != 1 ] || [ "$counts" = 0 ] || [ -z "$counts" ]; then
    echo "replica $a pipeline step counts diverge or are zero:" >&2
    curl -sf "http://$a/metrics" | grep '^soda_pipeline_step_seconds_count' >&2
    exit 1
  fi
done

echo "== assert /search request counts match the serving histograms =="
for a in "${ADDRS[@]}"; do
  reqs=$(metric "$a" '^soda_search_requests_total\{outcome="cold"\}')
  hist=$(metric "$a" '^soda_search_latency_seconds_count\{outcome="cold"\}')
  if [ -z "$reqs" ] || [ "$reqs" != "$hist" ]; then
    echo "replica $a: requests_total{cold}=$reqs != latency_seconds_count{cold}=$hist" >&2
    exit 1
  fi
done

wait_log() { # file pattern: the log line is written just after the
  # response is flushed, so give it a few rounds
  for _ in $(seq 1 50); do
    if grep -q "$2" "$1" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "== assert traceparent propagation: one trace id across the fleet =="
TRACE=4bf92f3577b34da6a3ce929d0e0e4736
PARENT="00-$TRACE-00f067aa0ba902b7-01"
# (a) the serving replica echoes the propagated trace id as X-Request-Id
hdr=$(curl -sf -D - -o /dev/null -X POST "http://${ADDRS[0]}/search" \
  -H "traceparent: $PARENT" -d "$QUERY" |
  awk 'tolower($1) == "x-request-id:" {print $2}' | tr -d '\r')
if [ "$hdr" != "$TRACE" ]; then
  echo "X-Request-Id = '$hdr', want propagated trace id $TRACE" >&2
  exit 1
fi
# (b) the trace id lands in the serving replica's request log
wait_log "$WORKDIR/access0.log" "\"trace_id\":\"$TRACE\"" ||
  { echo "trace id missing from replica 0 request log" >&2; exit 1; }
# (c) the flight recorder retains the trace under the same id
curl -sf "http://${ADDRS[0]}/debug/requests?id=$TRACE" |
  jq -e --arg t "$TRACE" '.trace_id == $t and .path == "/search"' >/dev/null ||
  { echo "/debug/requests does not retain trace $TRACE" >&2; exit 1; }

echo "== assert a traced /cluster/pull lands in the peer's request log =="
PULL_TRACE=aaaabbbbccccddddeeeeffff00001111
since=$(curl -sf "http://${ADDRS[0]}/healthz" |
  jq -r '.cluster.vector | to_entries | map("\(.key):\(.value)") | join(",")')
curl -sf "http://${ADDRS[1]}/cluster/pull?from=r0&since=$since" \
  -H "traceparent: 00-$PULL_TRACE-00f067aa0ba902b7-01" >/dev/null
wait_log "$WORKDIR/access1.log" "\"trace_id\":\"$PULL_TRACE\"" ||
  { echo "traced /cluster/pull missing from replica 1 request log" >&2; exit 1; }
# Background replication pulls carry minted trace ids too.
for i in 1 2; do
  grep '"path":"/cluster/pull"' "$WORKDIR/access$i.log" |
    jq -e 'select(.trace_id == null or .trace_id == "")' >/dev/null 2>&1 &&
    { echo "replica $i has /cluster/pull log lines without a trace id" >&2; exit 1; }
done

echo "OK: fleet converged to byte-identical /search after SIGKILL + restart"
