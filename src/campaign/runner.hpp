#pragma once

#include <cstddef>
#include <string>

#include "campaign/pool.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"

namespace wmsn::campaign {

struct CampaignOptions {
  std::string outPath;      ///< artifact JSON destination
  std::string journalPath;  ///< checkpoint journal path
  bool resume = false;      ///< load the journal and skip finished runs
  unsigned workers = 1;
  std::string metricsOutPath;  ///< merged per-run registries (plan order)
  bool workerStats = false;    ///< add scheduling gauges to the metrics-out
  /// Deterministic kill simulation for the resume gate: execute at most this
  /// many fresh runs, journal them, then stop WITHOUT writing the artifact.
  /// 0 = run to completion.
  std::size_t stopAfter = 0;
  bool quiet = false;
  /// When non-empty, every worker arms the crash flight recorder: a run
  /// that dies (invariant failure, fatal signal, injected crash) dumps the
  /// last in-memory spans to "<dir>/flight-<runId>.jsonl" post-mortem.
  std::string flightRecorderDir;
};

struct CampaignOutcome {
  std::size_t runsTotal = 0;
  std::size_t runsFromJournal = 0;  ///< skipped via --resume
  std::size_t runsExecuted = 0;     ///< fresh completions this invocation
  std::size_t runsFailed = 0;       ///< failed records in the final set
  bool stoppedEarly = false;        ///< --stop-after cut the campaign short
  PoolStats pool;
};

/// Expands the spec, executes every not-yet-journaled run across the fork
/// pool, journals each completion, and (unless stopped early) renders the
/// deterministic artifact to opts.outPath — plus, when requested, the
/// seed-order MetricsRegistry merge to opts.metricsOutPath. Unless quiet, it
/// then prints the per-cell table (renderCellTable) to stdout.
///
/// Worker crashes are contained: the crashed run is recorded as failed and
/// the campaign completes. Everything written to outPath/metricsOutPath is
/// independent of worker count, completion order and resume history.
CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& opts);

/// Env var holding a run ID; the worker that picks that run up _exits
/// without reporting, exercising the crash-isolation path end to end
/// (tests + the CI campaign gate).
extern const char* const kCrashRunEnv;

}  // namespace wmsn::campaign
