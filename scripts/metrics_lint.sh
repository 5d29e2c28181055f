#!/usr/bin/env bash
# Metrics lint: boot a two-replica sodad fleet (data dirs + peers, so the
# store, cluster, and serving instruments all register), drive one search
# and one snapshot to touch every layer, scrape /metrics, and validate the
# exposition with the in-tree parser (cmd/metricslint) against the metric
# names documented in the README's Observability catalog. Fails when a
# catalog name is absent from a live scrape or a scraped family is
# malformed — the docs and the daemon cannot silently drift apart.
#
# Usage: scripts/metrics_lint.sh [workdir]
# Requires: curl, go, a built ./sodad (or set SODAD=path).
set -euo pipefail

SODAD=${SODAD:-./sodad}
WORKDIR=${1:-$(mktemp -d)}
BASE_PORT=${BASE_PORT:-18280}
N=2

ADDRS=()
for i in $(seq 0 $((N - 1))); do
  ADDRS+=("127.0.0.1:$((BASE_PORT + i))")
done
PIDS=(0 0)

peers_of() { # i -> comma-separated peer URLs
  local i=$1 out=()
  for j in $(seq 0 $((N - 1))); do
    if [ "$j" != "$i" ]; then out+=("http://${ADDRS[$j]}"); fi
  done
  local IFS=,
  echo "${out[*]}"
}

cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== boot a two-replica fleet =="
for i in $(seq 0 $((N - 1))); do
  "$SODAD" -addr "${ADDRS[$i]}" -world minibank \
    -data-dir "$WORKDIR/data$i" -replica-id "r$i" \
    -peers "$(peers_of "$i")" -sync-interval 50ms \
    >"$WORKDIR/replica$i.log" 2>&1 &
  PIDS[$i]=$!
done
for a in "${ADDRS[@]}"; do
  ok=0
  for _ in $(seq 1 100); do
    if curl -sf "http://$a/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
  done
  [ "$ok" = 1 ] || { echo "sodad did not become healthy on $a" >&2; exit 1; }
done

echo "== touch every layer: search (twice: cold + hit), feedback, snapshot =="
for a in "${ADDRS[@]}"; do
  curl -sf -X POST "http://$a/search" -d '{"query": "wealthy customers", "snippets": true}' >/dev/null
  curl -sf -X POST "http://$a/search" -d '{"query": "wealthy customers", "snippets": true}' >/dev/null
done
curl -sf -X POST "http://${ADDRS[0]}/feedback" \
  -d '{"query": "wealthy customers", "result": 0, "like": true}' >/dev/null
curl -sf -X POST "http://${ADDRS[0]}/admin/snapshot" >/dev/null

echo "== extract the README metric catalog =="
CATALOG=$(grep -E '^\| `soda_' README.md | grep -oE '`soda_[a-z0-9_]+`' | tr -d '\`' | sort -u)
[ -n "$CATALOG" ] || { echo "no metric names found in README catalog" >&2; exit 1; }
echo "$CATALOG" | sed 's/^/   /'

echo "== lint each replica's /metrics against the catalog =="
for a in "${ADDRS[@]}"; do
  # shellcheck disable=SC2086
  curl -sf "http://$a/metrics" | go run ./cmd/metricslint $CATALOG
done

echo "OK: every catalog metric is served and well-formed"
