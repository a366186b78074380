"""wmsn-analyze driver — CLI, ledger application, fixture self-test.

Entry point: scripts/wmsn_analyze.py, the determinism auditor.

Modes:
  (default)      scan src/ tests/ bench/ examples/ under --root, apply the
                 tools/analyze/suppressions.toml ledger, print unsuppressed
                 findings. Exit 0 clean, 1 findings, 2 usage.
  --list-rules   print the rule registry (id, group, hazard).
  --json         machine-readable output (findings incl. suppressed ones).
  --rules A,B    restrict to rule ids / groups (e.g. --rules R4,lint).
  --fixtures     run the fixture corpus under tools/analyze/fixtures/ and
                 verify every `// expect: <rule>` marker — the analyzer's
                 own test suite (wired as `ctest -L analyze`).
"""

import argparse
import json
import os
import sys

import engine
import rules as rules_mod
from engine import Finding, Ledger, Manifest, collect_files


def analyze_tree(root, selection=None, with_ledger=True):
    """Scan the repo; returns (findings, scanned_count, audit findings)."""
    manifest = Manifest.load(root)
    files = collect_files(root)
    active = rules_mod.rules_by_selection(selection)
    findings = rules_mod.run_rules(files, manifest, active)
    audit = []
    if with_ledger:
        by_rel = {f.rel: f for f in files}

        def raw_line_of(finding):
            f = by_rel.get(finding.file)
            return f.raw(finding.line) if f else ""

        ledger = Ledger.load(root, rules_mod.RULE_IDS)
        audit = ledger.apply(findings, raw_line_of,
                             active_rules={r.id for r in active})
    return findings, len(files), audit


def print_findings(findings, audit, scanned, as_json):
    open_findings = [f for f in findings if not f.suppressed] + audit
    if as_json:
        print(json.dumps({
            "version": 1,
            "tool": "wmsn-analyze",
            "scanned": scanned,
            "unsuppressed": len(open_findings),
            "findings": [f.as_json() for f in open_findings],
            "suppressed": [f.as_json() for f in findings if f.suppressed],
        }, indent=2, sort_keys=True))
        return 1 if open_findings else 0
    for f in sorted(open_findings, key=lambda x: (x.file, x.line, x.rule)):
        print(f.format())
    suppressed = sum(1 for f in findings if f.suppressed)
    if open_findings:
        print(f"wmsn-analyze: {len(open_findings)} finding(s) in {scanned} files "
              f"({suppressed} suppressed)", file=sys.stderr)
        return 1
    print(f"wmsn-analyze: clean ({scanned} files, {suppressed} suppressed)")
    return 0


def list_rules():
    print(f"{'rule':26} {'group':6} description")
    for r in rules_mod.RULES:
        print(f"{r.id:26} {r.group:6} {r.description}")
        print(f"{'':26} {'':6}   hazard: {r.hazard}")
        if r.aliases:
            print(f"{'':26} {'':6}   legacy aliases: {', '.join(r.aliases)}")
    for rid, desc in sorted(rules_mod.META_RULES.items()):
        print(f"{rid:26} {'meta':6} {desc}")
    return 0


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

EXPECT = "// expect:"


def _expected_markers(path):
    """{(line, rule)} for every `// expect: ruleA, ruleB` marker."""
    expected = set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for i, line in enumerate(fh, start=1):
            idx = line.find(EXPECT)
            if idx < 0:
                continue
            for rid in line[idx + len(EXPECT):].split(","):
                rid = rid.strip()
                if rid:
                    expected.add((i, rid))
    return expected


def _run_fixture_dir(dirpath, errors):
    """Analyze one fixture corpus dir (all path classes active) and diff
    findings against the expect markers. Subdirs with a suppressions.toml
    of their own exercise the ledger round-trip."""
    manifest = Manifest.fixture_mode()
    files = collect_files(dirpath, scan_dirs=(".",))
    findings = rules_mod.run_rules(files, manifest)
    ledger_path = os.path.join(dirpath, "suppressions.toml")
    audit = []
    if os.path.isfile(ledger_path):
        by_rel = {f.rel: f for f in files}

        def raw_line_of(finding):
            f = by_rel.get(finding.file)
            return f.raw(finding.line) if f else ""

        # Ledger entries in fixtures address files relative to the fixture
        # dir, which is exactly how collect_files named them; the ledger
        # itself sits at the case root, not at the repo-tree relpath.
        ledger = Ledger.load(dirpath, rules_mod.RULE_IDS, path=ledger_path)
        audit = ledger.apply(findings, raw_line_of)

    got = {(f.file, f.line, f.rule) for f in findings if not f.suppressed}
    got |= {(f.file, f.line, f.rule) for f in audit}
    expected = set()
    for f in files:
        for line, rule in _expected_markers(os.path.join(dirpath, f.rel)):
            expected.add((f.rel, line, rule))
    if os.path.isfile(ledger_path):
        for line, rule in _expected_markers(ledger_path):
            expected.add((engine.LEDGER_RELPATH, line, rule))

    name = os.path.basename(dirpath)
    for miss in sorted(expected - got):
        errors.append(f"{name}/{miss[0]}:{miss[1]}: expected [{miss[2]}] "
                      "but the rule did not fire")
    for extra in sorted(got - expected):
        errors.append(f"{name}/{extra[0]}:{extra[1]}: unexpected "
                      f"[{extra[2]}] finding (add an `// expect:` marker "
                      "if intended)")


def run_fixtures(fixtures_dir):
    """Every immediate subdir of fixtures/ is one corpus case."""
    if not os.path.isdir(fixtures_dir):
        print(f"wmsn-analyze: no fixtures dir: {fixtures_dir}",
              file=sys.stderr)
        return 2
    errors = []
    cases = sorted(
        d for d in os.listdir(fixtures_dir)
        if os.path.isdir(os.path.join(fixtures_dir, d)))
    for case in cases:
        _run_fixture_dir(os.path.join(fixtures_dir, case), errors)
    if errors:
        for e in errors:
            print(e)
        print(f"wmsn-analyze --fixtures: {len(errors)} mismatch(es) across "
              f"{len(cases)} cases", file=sys.stderr)
        return 1
    print(f"wmsn-analyze --fixtures: {len(cases)} cases ok")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wmsn-analyze", description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: the tool's repo)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids / groups to run")
    parser.add_argument("--fixtures", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="run the fixture self-test corpus "
                             "(default: tools/analyze/fixtures)")
    args = parser.parse_args(argv)

    if args.list_rules:
        return list_rules()

    tool_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    root = args.root or tool_root
    if not os.path.isdir(root):
        print(f"wmsn-analyze: no such directory: {root}", file=sys.stderr)
        return 2

    if args.fixtures is not None:
        fixtures = args.fixtures or os.path.join(
            tool_root, "tools", "analyze", "fixtures")
        return run_fixtures(fixtures)

    selection = args.rules.split(",") if args.rules else None
    findings, scanned, audit = analyze_tree(root, selection)
    return print_findings(findings, audit, scanned, args.json)
