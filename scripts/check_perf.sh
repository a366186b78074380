#!/usr/bin/env bash
# Perf-counter gate (scripts/check_all.sh "perf" row). Four contracts:
#
#   1. zero perturbation — arming the perf ledger (--perf-out) must not
#      change a single byte of the run's stdout or its metrics registry.
#      The pinned scenario runs twice, counters off and on; the only
#      allowed difference is the "(perf counters written to ...)" notice
#      line, which is stripped before the diff.
#   2. pre-grid byte identity — the pinned 1k kernel scenario (the 1k
#      point of campaigns/kernel_scale.spec) must reproduce the committed
#      tests/golden/kernel_1k/ stdout and metrics registry byte for byte.
#      That golden was captured on the pre-spatial-grid O(n²) kernel, so
#      this is the standing proof that the grid + active-set kernel
#      (docs/KERNEL.md) changed HOW the work is done, not WHAT happens.
#   3. pairs and allocation budgets — at the 4k curve point,
#      pairs_examined (adjacency-row entries walked: the sender's row plus
#      the gateways tested, docs/KERNEL.md "Static adjacency") must stay at
#      most 12 per transmitted frame — a fixed ceiling with no override. On
#      that grid (20 m pitch, 30 m range) a sensor's row holds at most 9
#      entries and m = 2; the pre-grid kernel examined ~4000 per frame (one
#      per node) and the spatial grid's candidate superset ~19, so a
#      regression back toward superset or all-pairs scanning trips this
#      long before it trips a wall-clock gate. The same run's heap
#      allocations (telemetry.alloc_count) must stay at most 5.5 per
#      transmitted frame — a fixed ceiling with no override. The slab event
#      queue, inline actions and shared frames (docs/KERNEL.md) brought this
#      from ~40 to ~6.1, and the field-table wire codec, which sizes each
#      encoding's buffer once, to ~4.6; a closure, packet copy or
#      byte-at-a-time payload buffer creeping back onto the per-frame path
#      trips it deterministically. SecMLR gets its own fixed ceiling, also
#      with no override: at most 9 allocations per transmitted frame on the
#      perfbench secmlr_mobile scenario (100 sensors, 3 moving gateways, 20
#      rounds, seed 7). The shared keyring and the early duplicate-query drop
#      (docs/KERNEL.md "SecMLR key material") brought it from ~68 to ~17.4,
#      the field-table codec to ~9.1, and the scenario-owned flood ledger,
#      which replaced a hash node per node per flood with one bit
#      (docs/KERNEL.md "SecMLR flood ledger"), to ~8.3; per-node key
#      derivation, a decode of every duplicate query, a growing encode
#      buffer or per-node dedup sets coming back trips it.
#   4. throughput smoke  — the 1k point of the committed kernel-scaling
#      baseline (BENCH_kernel.json, campaigns/kernel_scale.spec) must be
#      reproducible: best-of-3 rounds/sec within a tolerance of the
#      committed figure, re-measured through wmsn_campaign's fork pool —
#      the same machinery that produced the baseline, so the comparison is
#      apples-to-apples. Default ±20%; override with
#      WMSN_PERF_RPS_TOLERANCE_PCT for slower/noisier machines. SKIPs when
#      the baseline file or the wmsn_campaign binary is absent.
#
# usage: check_perf.sh <path-to-wmsn_cli> <repo-source-dir> [wmsn_campaign]
# exit: 0 ok (including SKIPped smoke), 1 contract broken, 2 usage.
set -euo pipefail

cli="${1:?usage: check_perf.sh <wmsn_cli> <source-dir> [wmsn_campaign]}"
srcdir="${2:?usage: check_perf.sh <wmsn_cli> <source-dir> [wmsn_campaign]}"
campaign="${3:-}"
[ -x "$cli" ] || { echo "check_perf: $cli not executable" >&2; exit 2; }
cli="$(cd "$(dirname "$cli")" && pwd)/$(basename "$cli")"  # survives the cd below

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# --- 1. zero perturbation on the pinned scenario ---------------------------
pinned=(--protocol mlr --sensors 40 --gateways 2 --places 4 --area 140
        --rounds 3 --seed 5)

# Each pass runs in its own directory with identical relative output paths,
# so the "(metrics written to ...)" notice is byte-identical too and the
# stdout diff stays strict.
mkdir "$work/off" "$work/on"
(cd "$work/off" && "$cli" "${pinned[@]}" --metrics-out metrics.json) \
    >"$work/off.stdout"
(cd "$work/on" && "$cli" "${pinned[@]}" --metrics-out metrics.json \
     --perf-out perf.json) >"$work/on.stdout.raw"
grep -v '^(perf counters' "$work/on.stdout.raw" >"$work/on.stdout"

if ! diff -u "$work/off.stdout" "$work/on.stdout" >"$work/stdout.diff"; then
  echo "check_perf: stdout changed when perf counters were armed:" >&2
  cat "$work/stdout.diff" >&2
  exit 1
fi
if ! cmp -s "$work/off/metrics.json" "$work/on/metrics.json"; then
  echo "check_perf: metrics registry changed when perf counters were" \
       "armed (wmsn_perf_* must only ever appear in --perf-out)" >&2
  exit 1
fi

# The armed run must actually have counted something.
python3 - "$work/on/perf.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["counters"]
assert counters["frames_transmitted"] > 0, counters
assert counters["pairs_examined"] > 0, counters
assert doc["telemetry"]["rounds"] == 3, doc["telemetry"]
assert doc["telemetry"]["rounds_per_sec"] > 0, doc["telemetry"]
EOF
echo "check_perf: zero-perturbation ok (stdout + metrics byte-identical)"

# --- 2. byte identity vs the committed pre-grid golden ---------------------
# The exact [variant 1k] scenario of campaigns/kernel_scale.spec. The golden
# was captured before the spatial-grid kernel landed; any stdout or metrics
# drift here means the kernel changed simulation outcomes, not just cost.
kernel1k=(--protocol mlr --deployment grid --sensors 1000 --gateways 2
          --places 4 --area 630 --rounds 2 --static --workload poisson
          --rate 0.07 --seed 31)
mkdir "$work/golden"
(cd "$work/golden" && "$cli" "${kernel1k[@]}" --metrics-out metrics.json) \
    >"$work/golden.stdout"
if ! diff -u "$srcdir/tests/golden/kernel_1k/stdout.txt" \
             "$work/golden.stdout" >"$work/golden.diff"; then
  echo "check_perf: 1k kernel scenario stdout drifted from the pre-grid" \
       "golden (tests/golden/kernel_1k/stdout.txt):" >&2
  head -40 "$work/golden.diff" >&2
  exit 1
fi
if ! cmp -s "$srcdir/tests/golden/kernel_1k/metrics.json" \
            "$work/golden/metrics.json"; then
  echo "check_perf: 1k kernel scenario metrics drifted from the pre-grid" \
       "golden (tests/golden/kernel_1k/metrics.json)" >&2
  exit 1
fi
echo "check_perf: pre-grid golden ok (1k stdout + metrics byte-identical)"

# --- 3. pairs and allocation budgets at the 4k curve point -----------------
kernel4k=(--protocol mlr --deployment grid --sensors 4000 --gateways 2
          --places 4 --area 1270 --rounds 2 --static --workload poisson
          --rate 0.0175 --seed 31)
mkdir "$work/pairs"
(cd "$work/pairs" && "$cli" "${kernel4k[@]}" --perf-out perf.json) \
    >/dev/null
python3 - "$work/pairs/perf.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
ceiling = 12.0
pairs = doc["counters"]["pairs_examined"]
frames = doc["counters"]["frames_transmitted"]
assert frames > 0 and pairs > 0, doc["counters"]
per_frame = pairs / frames
ok = per_frame <= ceiling
print(f"check_perf: 4k pairs ceiling {per_frame:.1f} row entries/frame "
      f"(ceiling {ceiling:g}; the spatial grid's candidates were ~19, "
      f"all-pairs ~4000) {'ok' if ok else 'EXCEEDED'}")
allocs = doc["telemetry"]["alloc_count"]
alloc_ceiling = 5.5
allocs_per_frame = allocs / frames
alloc_ok = allocs_per_frame <= alloc_ceiling
print(f"check_perf: 4k allocation ceiling {allocs_per_frame:.2f} "
      f"allocations/frame (ceiling {alloc_ceiling:g}; ~40 before the slab "
      f"event queue, ~6.1 before the field-table codec) "
      f"{'ok' if alloc_ok else 'EXCEEDED'}")
sys.exit(0 if ok and alloc_ok else 1)
EOF

secmlr=(--protocol secmlr --deployment grid --sensors 100 --gateways 3
        --places 6 --rounds 20 --packets 4 --seed 7)
mkdir "$work/secmlr"
(cd "$work/secmlr" && "$cli" "${secmlr[@]}" --perf-out perf.json) >/dev/null
python3 - "$work/secmlr/perf.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
frames = doc["counters"]["frames_transmitted"]
assert frames > 0, doc["counters"]
per_frame = doc["telemetry"]["alloc_count"] / frames
ceiling = 9.0
ok = per_frame <= ceiling
print(f"check_perf: SecMLR allocation ceiling {per_frame:.2f} "
      f"allocations/frame (ceiling {ceiling:g}; ~68 before the shared "
      f"keyring, ~17.4 before the field-table codec, ~9.1 before the "
      f"flood ledger) "
      f"{'ok' if ok else 'EXCEEDED'}")
sys.exit(0 if ok else 1)
EOF

# --- 4. throughput smoke vs the committed baseline -------------------------
baseline="$srcdir/BENCH_kernel.json"
if [ ! -f "$baseline" ]; then
  echo "check_perf: SKIP throughput smoke (no BENCH_kernel.json)"
  exit 0
fi
if [ -z "$campaign" ] || [ ! -x "$campaign" ]; then
  echo "check_perf: SKIP throughput smoke (no wmsn_campaign binary)"
  exit 0
fi

committed="$(python3 - "$baseline" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for run in doc["runs"]:
    if run["cell"] == "1k" and run["status"] == "ok":
        print(run["perf_rounds_per_sec"])
        break
EOF
)"
if [ -z "$committed" ]; then
  echo "check_perf: BENCH_kernel.json has no 1k cell" >&2
  exit 1
fi

# Re-run the 1k curve point (campaigns/kernel_scale.spec [variant 1k])
# through the fork pool that produced the baseline, best of 3 so scheduler
# noise costs retries, not false failures.
cat >"$work/smoke.spec" <<'EOF'
name = kernel_scale_smoke
seed = 31
repeats = 1
protocol = mlr
deployment = grid
gateways = 2
places = 4
rounds = 2
static = on
workload = poisson
perf = on

[variant 1k]
sensors = 1000
area = 630
rate = 0.07

[sweep]
variant = 1k
EOF
best=0
for rep in 1 2 3; do
  "$campaign" "$work/smoke.spec" --out "$work/smoke$rep.json" \
              --journal "$work/smoke$rep.journal" --quiet
  rps="$(python3 -c \
    "import json;print(json.load(open('$work/smoke$rep.json'))['runs'][0]['perf_rounds_per_sec'])")"
  best="$(python3 -c "print(max($best, $rps))")"
done

tol="${WMSN_PERF_RPS_TOLERANCE_PCT:-20}"
python3 - "$best" "$committed" "$tol" <<'EOF' || exit 1
import sys
best, committed, tol = float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
lo, hi = committed * (1 - tol / 100), committed * (1 + tol / 100)
ok = lo <= best <= hi
print(f"check_perf: 1k rounds/sec {best:.3f} vs committed {committed:.3f} "
      f"(tolerance +/-{tol:g}%) {'ok' if ok else 'OUT OF RANGE'}")
sys.exit(0 if ok else 1)
EOF
echo "check_perf: ok"
