#!/usr/bin/env bash
# Allocation gate: run each serving-benchmark workload once, as the driver
# does, and hold server_allocs_per_op — the one end-to-end metric that
# repeats to a few percent on any machine — against the reference
# measured on the parent of the commit that last changed it. Wall-clock
# metrics are not gated here: their run-to-run spread on shared runners is
# wider than any bound worth enforcing.
#
# A workload fails when the benchmark's own checks fail ("correct" is
# false, or any operation failed) or when its allocations per operation
# exceed reference × limit.
#
# GOMAXPROCS=2 is the reference machine's core count: sodad sizes its
# worker pool and cache shards from it, so the counts are comparable on a
# runner with more cores.
#
# Usage: scripts/allocs_gate.sh          (~6 min; needs go, no arguments)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# workload=reference: server_allocs_per_op, median of three or more runs
# of this script's own command (2 cores, go1.24.0 linux/amd64).
# explore_hot was measured over ten runs on the child of commit 5a50c2b,
# whose serving layer makes 14 fewer allocations per request (one request
# record, no per-request context nodes, no discard of a read body); the
# runs spread by 0.07% of the median, and at 5a50c2b it read 49.1.
# adhoc_cold and feedback_mix were measured over three runs on the child
# of commit b9138bb, whose Step 3 keeps the discovery view as table IDs
# and copies the lists of all of a search's solutions into one slab per
# element type (the runs spread by 0.05% and 0.24% of the median). At
# b9138bb they read 114.7 and 50.7 (medians of ten and five runs).
# snippet_exec was measured over three runs on the child of commit
# baff156, whose hash joins on one column of an unfiltered table probe a
# join index built once per table column (the runs spread by 0.29% of the
# median); at baff156 it read 540.
refs="explore_hot=35.1 adhoc_cold=110.8 snippet_exec=493 feedback_mix=49.9"

limit=1.15 # 1 + the bound of server_allocs_per_op in BENCHMARK.json
status=0
for entry in $refs; do
  w=${entry%%=*} ref=${entry#*=}
  if ! out=$(GOMAXPROCS=2 bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --trace 0); then
    echo "FAIL $w: benchmark exited non-zero"
    echo "$out" | tail -n 20
    status=1
    continue
  fi
  line=$(echo "$out" | tail -n 1)
  correct=$(echo "$line" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')
  failed=$(echo "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
  allocs=$(echo "$line" | sed -n 's/.*"server_allocs_per_op":{"value":\([0-9.e+]*\).*/\1/p')
  if [ "$correct" != true ] || [ "$failed" != 0 ] || [ -z "$allocs" ]; then
    echo "FAIL $w: correct=$correct failed=$failed server_allocs_per_op=${allocs:-missing}"
    status=1
  elif awk -v v="$allocs" -v r="$ref" -v l="$limit" 'BEGIN { exit !(v <= r * l) }'; then
    echo "ok   $w: server_allocs_per_op $allocs (reference $ref, limit ×$limit)"
  else
    echo "FAIL $w: server_allocs_per_op $allocs exceeds reference $ref × $limit"
    status=1
  fi
done
exit $status
