#!/usr/bin/env bash
# check_all.sh — the one-stop correctness gate. Runs, in order:
#
#   werror       full Release tree with -Werror (WMSN_WERROR=ON); under
#                --quick this gate also runs the tier-1 ctest suite
#   asan-ubsan   full ctest under AddressSanitizer + UBSanitizer
#   tsan         full ctest under ThreadSanitizer (the threaded repeat-mode
#                determinism tests included)
#   invariants   full ctest with WMSN_INVARIANTS=ON (runtime protocol checks
#                live; the deliberate-violation tests fire)
#   clang-tidy   scripts/check_tidy.sh over the committed .clang-tidy
#                (SKIPs when clang-tidy is not installed)
#   analyze      scripts/wmsn_analyze.py determinism auditor: R1-R6
#                ordering/RNG rules + absorbed lint rules + the audited
#                suppression ledger, then its fixture self-test corpus
#   docs         scripts/check_docs.sh CLI-flag/documentation drift, then
#                scripts/check_cli_input.sh (bad numbers exit 2 by name)
#   campaign     scripts/check_campaign.sh kill/resume/crash-containment
#   perf         scripts/check_perf.sh perf-counter zero-perturbation
#                (byte-identical stdout/metrics with counters armed) and
#                the BENCH_kernel.json 1k rounds/sec smoke
#   obs-budget   bench_obs_overhead --check observability overhead budget
#                (null trace sink <= 2%, sampled span tracing <= 5%,
#                perf counters off <= 2% / on <= 5%)
#
# and prints a per-gate summary table with wall time. Exit 0 iff no gate
# FAILed. SKIPs are not failures — a gate whose tool is absent from the
# image, or that --quick elides, reports SKIP with the reason, never a
# silent pass.
#
# usage: check_all.sh [--quick] [--jobs N]
#   --quick   the fast pre-commit loop: werror build + tier-1 ctest +
#             analyze. Sanitizer/invariants rebuilds and the binary-driven
#             gates report SKIP (--quick). Builds incrementally in an
#             existing build-werror tree.
#   --jobs N  parallel build/test jobs (default: nproc)
set -uo pipefail

scriptdir="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$scriptdir")"
jobs="$(nproc 2>/dev/null || echo 2)"
quick=0
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=1 ;;
    --jobs) shift; jobs="${1:?--jobs needs a value}" ;;
    *) echo "usage: check_all.sh [--quick] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done

declare -a gate_names=() gate_results=() gate_notes=() gate_secs=()
overall=0
mark=$SECONDS

note_gate() {  # name result note
  gate_names+=("$1")
  gate_results+=("$2")
  gate_notes+=("$3")
  gate_secs+=("$((SECONDS - mark))")
  mark=$SECONDS
  [ "$2" = "FAIL" ] && overall=1
  echo "=== $1: $2 ${3:+($3)}"
}

configure() {  # dir flags...
  # Always re-applies the flags: an existing cache configured with another
  # build type would otherwise keep building that type.
  local dir="$1"; shift
  cmake -B "$repo/$dir" -S "$repo" "$@" >/dev/null
}

build_and_test() {  # gate-name dir run-ctest flags...
  local name="$1" dir="$2" run_ctest="$3"; shift 3
  echo "=== $name: configuring + building $dir"
  if ! configure "$dir" "$@"; then
    note_gate "$name" FAIL "cmake configure failed"
    return
  fi
  if ! cmake --build "$repo/$dir" -j "$jobs" >"$repo/$dir/build.log" 2>&1; then
    tail -n 40 "$repo/$dir/build.log"
    note_gate "$name" FAIL "build failed (full log: $dir/build.log)"
    return
  fi
  if [ "$run_ctest" = "no-ctest" ]; then
    note_gate "$name" PASS "build clean"
    return
  fi
  if (cd "$repo/$dir" && ctest --output-on-failure -j "$jobs" \
        >"$repo/$dir/ctest.log" 2>&1); then
    local count
    count="$(grep -oE '[0-9]+ tests? passed' "$repo/$dir/ctest.log" | head -1)"
    note_gate "$name" PASS "${count:-ctest green}"
  else
    tail -n 60 "$repo/$dir/ctest.log"
    note_gate "$name" FAIL "ctest failed (full log: $dir/ctest.log)"
  fi
}

# 1. -Werror across src/ tests/ bench/ examples/, in Release: the -O3
#    build perfbench measures, whose inlining raises warnings (-Wrestrict)
#    that lower levels do not. Under --quick this tree also carries the
#    tier-1 ctest suite (the only build --quick does).
if [ "$quick" -eq 1 ]; then
  build_and_test werror build-werror ctest -DWMSN_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release
else
  build_and_test werror build-werror no-ctest -DWMSN_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release
fi

# 2-4. Sanitizer + invariants rebuilds — the expensive gates --quick elides.
if [ "$quick" -eq 1 ]; then
  note_gate asan-ubsan SKIP "--quick"
  note_gate tsan SKIP "--quick"
  note_gate invariants SKIP "--quick"
else
  build_and_test asan-ubsan build-asan ctest -DWMSN_ASAN_UBSAN=ON
  # TSan: the threaded repeat-mode determinism tests are the point —
  # repeat-mode workers must stay race-free.
  build_and_test tsan build-tsan ctest -DWMSN_TSAN=ON
  # Runtime invariants live, full suite (violation tests fire here).
  build_and_test invariants build-invariants ctest -DWMSN_INVARIANTS=ON
fi

# 5. clang-tidy gate (SKIPs if the binary is absent).
if [ "$quick" -eq 1 ]; then
  note_gate clang-tidy SKIP "--quick"
else
  tidy_out="$("$scriptdir/check_tidy.sh" 2>&1)"; tidy_status=$?
  echo "$tidy_out"
  if [ "$tidy_status" -ne 0 ]; then
    note_gate clang-tidy FAIL "see findings above"
  elif echo "$tidy_out" | grep -q "SKIP"; then
    note_gate clang-tidy SKIP "clang-tidy not installed"
  else
    note_gate clang-tidy PASS "zero findings"
  fi
fi

# 6. Determinism auditor: full rule pack + ledger audit over the tree, then
#    the fixture corpus that tests the analyzer itself.
if an_out="$(python3 "$scriptdir/wmsn_analyze.py" --root "$repo" 2>&1)"; then
  if fx_out="$(python3 "$scriptdir/wmsn_analyze.py" --fixtures 2>&1)"; then
    note_gate analyze PASS \
      "$(echo "$an_out" | tail -1); $(echo "$fx_out" | tail -1)"
  else
    echo "$fx_out"
    note_gate analyze FAIL "fixture self-test mismatches above"
  fi
else
  echo "$an_out"
  note_gate analyze FAIL "unsuppressed findings above"
fi

cli="$repo/build-werror/examples/wmsn_cli"
campaign_cli="$repo/build-werror/examples/wmsn_campaign"

if [ "$quick" -eq 1 ]; then
  note_gate docs SKIP "--quick"
  note_gate campaign SKIP "--quick"
  note_gate perf SKIP "--quick"
  note_gate obs-budget SKIP "--quick"
else
  # 7. Documentation drift (needs built CLIs; the werror tree has them).
  if [ -x "$cli" ] && [ -x "$campaign_cli" ]; then
    if docs_out="$(bash "$scriptdir/check_docs.sh" "$cli" "$repo" \
                   "$campaign_cli" 2>&1 &&
                   bash "$scriptdir/check_cli_input.sh" "$cli" \
                   "$campaign_cli" 2>&1)"; then
      note_gate docs PASS "$(echo "$docs_out" | tail -1)"
    else
      echo "$docs_out"
      note_gate docs FAIL "drift above"
    fi
  else
    note_gate docs SKIP "no CLI binaries (werror build failed?)"
  fi

  # 8. Campaign orchestration smoke gate: run → kill → --resume must land on
  #    the same bytes as uninterrupted, across worker counts, and an injected
  #    worker crash must be contained to one failed run.
  if [ -x "$campaign_cli" ]; then
    if camp_out="$(bash "$scriptdir/check_campaign.sh" "$campaign_cli" \
                   "$repo" 2>&1)"; then
      note_gate campaign PASS "$(echo "$camp_out" | tail -1)"
    else
      echo "$camp_out"
      note_gate campaign FAIL "see above"
    fi
  else
    note_gate campaign SKIP "no wmsn_campaign binary (werror build failed?)"
  fi

  # 9. Perf-counter discipline: arming the deterministic work-counter ledger
  #    must not perturb a single output byte, and the committed
  #    kernel-scaling baseline's 1k point must still be reproducible.
  if [ -x "$cli" ]; then
    if perf_out="$(bash "$scriptdir/check_perf.sh" "$cli" "$repo" \
                   "$campaign_cli" 2>&1)"; then
      if echo "$perf_out" | grep -q "SKIP"; then
        note_gate perf PASS "zero-perturbation ok; smoke SKIPped (no baseline)"
      else
        note_gate perf PASS "$(echo "$perf_out" | tail -1)"
      fi
    else
      echo "$perf_out"
      note_gate perf FAIL "see above"
    fi
  else
    note_gate perf SKIP "no wmsn_cli binary (werror build failed?)"
  fi

  # 10. Observability overhead budget: causal tracing must not distort the
  #     experiments it observes. Evaluated on min-of-reps wall time, so a
  #     noisy scheduler costs retries, not false failures.
  obs_bench="$repo/build-werror/bench/bench_obs_overhead"
  if [ -x "$obs_bench" ]; then
    if obs_out="$("$obs_bench" --reps 5 --check 2>&1)"; then
      note_gate obs-budget PASS "$(echo "$obs_out" | tail -1)"
    else
      echo "$obs_out"
      note_gate obs-budget FAIL "budget exceeded (see above)"
    fi
  else
    note_gate obs-budget SKIP "no bench_obs_overhead binary"
  fi
fi

echo
echo "┌──────────────┬────────┬────────┬──────────────────────────────────────────────┐"
printf "│ %-12s │ %-6s │ %6s │ %-44s │\n" "gate" "result" "time" "detail"
echo "├──────────────┼────────┼────────┼──────────────────────────────────────────────┤"
for i in "${!gate_names[@]}"; do
  printf "│ %-12s │ %-6s │ %5ss │ %-44.44s │\n" \
         "${gate_names[$i]}" "${gate_results[$i]}" "${gate_secs[$i]}" \
         "${gate_notes[$i]}"
done
echo "└──────────────┴────────┴────────┴──────────────────────────────────────────────┘"

if [ "$overall" -eq 0 ]; then
  echo "check_all: all gates green"
else
  echo "check_all: FAILURES above" >&2
fi
exit "$overall"
