#!/usr/bin/env bash
# Bad-input check, run from ctest (-L docs) and the docs row of
# check_all.sh: every malformed number given to wmsn_cli or wmsn_campaign,
# as a flag or as a campaign spec setting, must exit 2 with a message that
# names the flag or key. So must an unknown flag, a flag without its value
# and --reps 0 given to bench_obs_overhead (the benches' shared parser), and
# --threads given to a bench that runs no parallel sweep (those binaries are
# found next to bench_obs_overhead). An unknown wmsn_cli option (--trace) and
# --svg with --repeat exit 2 naming the flag as well. A crash (exit 134), a silent truncation
# (exit 0) or an "unexpected error" (exit 1) fails the check. A config validation failure (exit 1) is checked
# too. No message may carry the checkout's absolute path: the same bad input
# prints the same stderr from any checkout.
#
# usage: check_cli_input.sh <path-to-wmsn_cli> <path-to-wmsn_campaign>
#                           <path-to-bench_obs_overhead>
set -uo pipefail

usage="usage: check_cli_input.sh <wmsn_cli> <wmsn_campaign> <bench_obs_overhead>"
cli="${1:?$usage}"
campaign="${2:?$usage}"
obs_bench="${3:?$usage}"

srcdir="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
total=0

# expect_exit <code> <name the message must contain> <command...>
expect_exit() {
  local want="$1" needle="$2"; shift 2
  total=$((total + 1))
  local err code
  err="$("$@" 2>&1 >/dev/null)"
  code=$?
  if [ "$code" -ne "$want" ]; then
    echo "check_cli_input: '$*' exited $code, want $want: $err" >&2
    status=1
  elif ! grep -qF -- "$needle" <<<"$err"; then
    echo "check_cli_input: '$*' message does not name '$needle': $err" >&2
    status=1
  elif grep -qF -- "$srcdir/" <<<"$err"; then
    echo "check_cli_input: '$*' message carries the source path: $err" >&2
    status=1
  fi
}

# expect <name the message must contain> <command...>: a bad number, exit 2.
expect() { expect_exit 2 "$@"; }

# spec <file-tag> <setting line>: a one-axis spec with one bad setting.
spec() {
  printf '%s\n[sweep]\nprotocol = spr\n' "$2" >"$work/$1.spec"
  echo "$work/$1.spec"
}

expect "sensors" "$cli" --sensors abc
expect "sensors" "$cli" --sensors 30x
expect "rate" "$cli" --rate x
expect "queue" "$cli" --queue 9999999999999999999999
expect "--seed" "$cli" --seed -1
expect "--repeat" "$cli" --repeat 4294967296
expect "fault" "$cli" --node-mtbf abc
expect "fault" "$cli" --fault-plan "s99999999999999999999@1"

# An option that no longer exists, and a combination the CLI cannot honour.
expect "--trace" "$cli" --trace "$work/out.csv"
expect "--svg" "$cli" --repeat 2 --rounds 1 --svg "$work/x.svg"

# A valid number that fails config validation (WMSN_REQUIRE_MSG) exits 1.
expect_exit 1 "rounds" "$cli" --rounds 0

good="$(spec good "rounds = 2")"
expect "--workers" "$campaign" "$good" --dry-run --workers abc
expect "--stop-after" "$campaign" "$good" --dry-run --stop-after 1x
expect "rounds" "$campaign" "$(spec rounds "rounds = 4294967297")" --dry-run
expect "repeats" "$campaign" "$(spec repeats "repeats = 4294967297")" --dry-run
expect "sensors" "$campaign" \
       "$(spec sensors "sensors = 99999999999999999999")" --dry-run
expect "fault" "$campaign" "$(spec round "fault = s1@4294967299")" --dry-run
expect "fault" "$campaign" \
       "$(spec ordinal "fault = s99999999999999999999@1")" --dry-run

expect "--chek" "$obs_bench" --chek
expect "--reps" "$obs_bench" --reps 0
expect "--reps" "$obs_bench" --reps x
expect "--reps" "$obs_bench" --check --reps
expect "--csv" "$obs_bench" --csv

# Benches without a parallel sweep do not admit --threads.
benchdir="$(dirname "$obs_bench")"
for b in bench_load_balance bench_mesh_tier bench_obs_overhead \
         bench_robustness bench_routing_overhead bench_table1_mlr; do
  expect "--threads" "$benchdir/$b" --threads 2
done

if [ "$status" -eq 0 ]; then
  echo "check_cli_input: all $total bad inputs exit with a message naming" \
       "their flag or key"
fi
exit "$status"
