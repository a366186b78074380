#!/usr/bin/env bash
# Congested-queue golden (ctest `check_golden`, label golden). Reruns one
# small wmsn_cli scenario whose finite MAC queues overflow and compares its
# stdout, metrics registry and per-round time series byte for byte against
# tests/golden/queue_congested/. It is the committed check on the per-node
# queue metrics (wmsn_node_queue_drops_total{node}, the
# wmsn_node_peak_queue_depth histogram) and on the queue columns of the
# time series (queue_drops, mac_drops, collisions, queue_peak, queue_mean,
# qdepth_*), which the unbounded-queue kernel_1k golden never exercises.
#
# usage: check_golden.sh <path-to-wmsn_cli> <repo-source-dir>
set -euo pipefail

cli="${1:?usage: check_golden.sh <wmsn_cli> <source-dir>}"
srcdir="${2:?usage: check_golden.sh <wmsn_cli> <source-dir>}"
golden="$srcdir/tests/golden/queue_congested"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Poisson load past what a 6-slot drop-tail queue absorbs near the
# gateways: queue drops at nine nodes, per-node peaks in every depth bucket
# up to 8.
(cd "$work" && "$cli" --protocol mlr --sensors 80 --area 150 --rounds 3 \
   --workload poisson --rate 8 --queue 6 --seed 3 \
   --metrics-out metrics.json --timeseries-out timeseries.csv >stdout.txt)

status=0
for f in stdout.txt metrics.json timeseries.csv; do
  if ! cmp -s "$golden/$f" "$work/$f"; then
    echo "check_golden: $f differs from tests/golden/queue_congested/$f:" >&2
    diff -u "$golden/$f" "$work/$f" | head -20 >&2 || true
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_golden: queue_congested ok (stdout," \
  "metrics, time series byte-identical)"
exit "$status"
