#!/usr/bin/env bash
# Documentation drift check, run from ctest (-L docs): every flag each
# listed binary advertises in --help must be documented in README.md,
# EXPERIMENTS.md or docs/METRICS.md. Adding a flag without documenting it
# fails the suite. The other direction too: a "| `--flag` |" table row in
# those docs must name only flags some listed binary's --help advertises
# (--help itself excepted), so a removed flag cannot stay documented.
# Every bench_* binary README.md, EXPERIMENTS.md, DESIGN.md,
# docs/*.md or the verify skill names must be built by bench/CMakeLists.txt
# (CHANGES.md, ROADMAP.md and the fingerprinted campaigns/ specs are history).
#
# usage: check_docs.sh <path-to-binary> <repo-source-dir> [more-binaries...]
set -euo pipefail

cli="${1:?usage: check_docs.sh <binary> <source-dir> [more-binaries...]}"
srcdir="${2:?usage: check_docs.sh <binary> <source-dir> [more-binaries...]}"
shift 2
binaries=("$cli" "$@")
docs=("$srcdir/README.md" "$srcdir/EXPERIMENTS.md" "$srcdir/docs/METRICS.md")

for doc in "${docs[@]}"; do
  if [ ! -f "$doc" ]; then
    echo "check_docs: missing documentation file: $doc" >&2
    exit 1
  fi
done

status=0
total=0
advertised=""
for bin in "${binaries[@]}"; do
  name="$(basename "$bin")"
  # Flags are the "  --name" column of the usage text.
  flags=$("$bin" --help | sed -n 's/^ *\(--[a-z][a-z-]*\).*/\1/p' | sort -u)
  if [ -z "$flags" ]; then
    echo "check_docs: extracted no flags from '$bin --help'" >&2
    exit 1
  fi
  advertised+="$flags"$'\n'
  for flag in $flags; do
    total=$((total + 1))
    if ! grep -q -- "$flag" "${docs[@]}"; then
      echo "check_docs: $name flag '$flag' is advertised by --help but" \
           "documented in none of: ${docs[*]}" >&2
      status=1
    fi
  done
done

# Every flag in the first cell of a "| `--flag` ..." table row, against the
# union of what the binaries advertise.
tabled=0
for doc in "${docs[@]}"; do
  documented=$({ grep -E '^\| `--' "$doc" || true; } | cut -d'|' -f2 |
               { grep -oE -- '--[a-z][a-z-]*' || true; } | sort -u)
  for flag in $documented; do
    tabled=$((tabled + 1))
    [ "$flag" = "--help" ] && continue
    if ! grep -qxF -- "$flag" <<<"$advertised"; then
      echo "check_docs: ${doc#"$srcdir"/} documents '$flag' in a flag" \
           "table, but no binary's --help advertises it" >&2
      status=1
    fi
  done
done

# Every bench_<name>[.cpp] word in the prose docs (bench_util.hpp is the
# benches' shared header) against the names bench/CMakeLists.txt builds.
built=$(sed -n 's/^[a-z_]*(\(bench_[a-z0-9_]*\)[ )].*/\1/p' \
        "$srcdir/bench/CMakeLists.txt" | sort -u)
[ -n "$built" ] || { echo "check_docs: no bench names found in" \
                          "bench/CMakeLists.txt" >&2; exit 1; }
prose=("$srcdir/README.md" "$srcdir/EXPERIMENTS.md" "$srcdir/DESIGN.md"
       "$srcdir"/docs/*.md "$srcdir/.claude/skills/verify/SKILL.md")
named=0
for doc in "${prose[@]}"; do
  [ -f "$doc" ] || continue
  refs=$({ grep -oE '(^|[^A-Za-z0-9_.])bench_[a-z0-9_]+(\.[a-z]+)?' "$doc" ||
           true; } | sed 's/^[^b]*//; /\.hpp$/d; s/\.cpp$//' | sort -u)
  for ref in $refs; do
    named=$((named + 1))
    if ! grep -qxF -- "$ref" <<<"$built"; then
      echo "check_docs: ${doc#"$srcdir"/} names '$ref', which" \
           "bench/CMakeLists.txt does not build" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: all $total flags (${#binaries[@]} binaries) are" \
       "documented; all $tabled flags in the docs' flag tables are" \
       "advertised; all $named bench names in the docs are built"
fi
exit "$status"
