#!/usr/bin/env python3
"""wmsn-analyze — the project determinism auditor.

Statically enforces the byte-identity contract (output identical across
`--threads`, `--resume`, and worker crashes) over every translation unit
in src/ tests/ bench/ examples/. Pure stdlib Python: runs everywhere
scripts/check_all.sh does.

Rule pack (see `--list-rules` and DESIGN.md "Correctness tooling"):

  R1-unordered-iteration  iteration over std::unordered_{map,set} in any
                          file #include-reachable from the output/metrics/
                          trace/artifact path classes
                          (tools/analyze/manifest.toml)
  R2-pointer-keyed-order  std::map<T*,..>/std::set<T*>, std::hash/less
                          over pointers — ordering by heap address
  R3-nondet-source        wall clock, std::random_device, rand(), getenv,
                          <random>/<ctime> outside the whitelisted
                          telemetry files and the RNG facade
  R4-rng-draw-divergence  util::Rng draws inside conditionals not
                          annotated `// wmsn:fixed-draws`
  R5-float-reduction      floating-point +=/-= reductions in files the
                          kernel rewrite will parallelize
  R6-macro-discipline     WMSN_TRACE / WMSN_PERF null-guard discipline;
                          side-effect-free WMSN_INVARIANT conditions
  (plus the lint group: float-equality, observer-contract,
   include-guard, process-discipline, rangescan-discipline,
   number-parse-discipline)

Suppressions for the determinism rules live ONLY in the committed,
audited ledger tools/analyze/suppressions.toml — every entry needs a
justification, and stale entries are findings themselves. Legacy rules
keep honouring `// wmsn-lint: allow(<rule>)` inline comments.

usage: wmsn_analyze.py [--root DIR] [--list-rules] [--json]
                       [--rules A,B] [--fixtures [DIR]]
exit status: 0 clean, 1 findings, 2 usage error.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "analyze"))

from driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
