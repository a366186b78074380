#!/usr/bin/env bash
# Committed-artifact regeneration gate (scripts/check_all.sh "artifacts"
# row). Regenerates the campaign artifacts whose every field is
# deterministic — BENCH_attacks.json, BENCH_fault.json,
# BENCH_offered_load.json and BENCH_obs_overhead.json — from their
# campaigns/*.spec with `wmsn_campaign --workers 4` into a temporary
# directory, and compares each against the committed file byte for byte.
# BENCH_kernel.json is not checked here: its wall-clock and RSS telemetry
# differ on every run.
#
# usage: check_artifacts.sh <path-to-wmsn_campaign> <repo-source-dir>
set -euo pipefail

bin="${1:?usage: check_artifacts.sh <wmsn_campaign> <source-dir>}"
srcdir="${2:?usage: check_artifacts.sh <wmsn_campaign> <source-dir>}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
for name in attacks fault offered_load obs_overhead; do
  committed="$srcdir/BENCH_$name.json"
  fresh="$work/BENCH_$name.json"
  if ! "$bin" "$srcdir/campaigns/$name.spec" --out "$fresh" \
       --journal "$work/$name.journal" --workers 4 --quiet; then
    echo "check_artifacts: wmsn_campaign failed on campaigns/$name.spec" >&2
    status=1
    continue
  fi
  if ! cmp "$committed" "$fresh" >&2; then
    echo "check_artifacts: BENCH_$name.json does not regenerate from" \
         "campaigns/$name.spec" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_artifacts: 4 artifacts regenerate" \
  "byte for byte"
exit "$status"
