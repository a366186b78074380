#include "campaign/runner.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "core/experiment.hpp"
#include "obs/packet_trace.hpp"
#include "util/require.hpp"

namespace wmsn::campaign {

const char* const kCrashRunEnv = "WMSN_CAMPAIGN_CRASH_RUN";

namespace {

/// Run IDs contain '/' (cell/seed) — flatten for use as a file name.
std::string flattenId(const std::string& id) {
  std::string out = id;
  for (char& c : out)
    if (c == '/') c = '_';
  return out;
}

/// Executes one planned run inside a forked worker and encodes the outcome.
/// In-run exceptions become failed records (still a normal payload); only a
/// real crash leaves the parent to synthesize the record from pipe EOF.
std::string executeRun(const PlannedRun& run, const std::string& flightDir) {
  if (!flightDir.empty())
    obs::setFlightRecorderPath(flightDir + "/flight-" + flattenId(run.id) +
                               ".jsonl");
  const char* crashId = std::getenv(kCrashRunEnv);
  if (crashId != nullptr && run.id == crashId) {
    // _exit bypasses the fatal-signal handlers, so the post-mortem dump has
    // to be explicit here.
    if (!flightDir.empty())
      obs::dumpFlightRecorder("campaign-crash-injected");
    ::_exit(86);  // simulated worker crash: no payload, parent sees EOF
  }
  RunRecord record;
  try {
    const core::RunResult result = core::runScenario(run.config);
    const double totalSimSeconds =
        static_cast<double>(run.config.rounds) *
        run.config.roundDuration.seconds();
    record = makeRecord(run.id, run.cell, run.seed, run.seedIndex, result,
                        totalSimSeconds);
  } catch (const std::exception& e) {
    record = makeFailedRecord(run.id, run.cell, run.seed, run.seedIndex,
                              e.what());
  }
  return encodeRecord(record);
}

void progressLine(const CampaignOptions& opts, std::size_t done,
                  std::size_t total, const RunRecord& last) {
  if (opts.quiet) return;
  std::printf("[%zu/%zu] %s %s\n", done, total, last.ok() ? "ok" : "FAILED",
              last.id.c_str());
  std::fflush(stdout);
}

}  // namespace

CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& opts) {
  WMSN_REQUIRE_MSG(!opts.journalPath.empty(), "campaign needs a journal path");
  const std::vector<PlannedRun> plan = expand(spec);

  CampaignOutcome outcome;
  outcome.runsTotal = plan.size();

  Journal journal =
      opts.resume
          ? Journal::resume(opts.journalPath, spec.fingerprint(), plan.size())
          : Journal::create(opts.journalPath, spec.fingerprint(), plan.size());
  std::map<std::string, RunRecord> records = journal.loaded();
  outcome.runsFromJournal = records.size();

  // Fresh work, in plan order. --stop-after truncates it: the first N
  // pending runs execute and journal, then the campaign stops exactly as a
  // kill would have left it (minus torn lines).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (records.find(plan[i].id) == records.end()) pending.push_back(i);
  if (opts.stopAfter > 0 && pending.size() > opts.stopAfter) {
    pending.resize(opts.stopAfter);
    outcome.stoppedEarly = true;
  }

  std::size_t done = outcome.runsFromJournal;
  outcome.pool = runForkPool(
      pending.size(), opts.workers,
      [&](std::size_t jobIndex) {
        return executeRun(plan[pending[jobIndex]], opts.flightRecorderDir);
      },
      [&](std::size_t jobIndex, bool crashed, const std::string& payload,
          unsigned /*worker*/) {
        const PlannedRun& run = plan[pending[jobIndex]];
        RunRecord record =
            crashed ? makeFailedRecord(run.id, run.cell, run.seed,
                                       run.seedIndex,
                                       "worker process died mid-run")
                    : decodeRecord(payload);
        WMSN_REQUIRE_MSG(record.id == run.id,
                         "campaign worker answered for the wrong run");
        journal.append(record);
        records.emplace(record.id, std::move(record));
        ++outcome.runsExecuted;
        ++done;
        progressLine(opts, done, plan.size(), records.at(run.id));
      });
  journal.close();

  for (const auto& [id, record] : records)
    if (!record.ok()) ++outcome.runsFailed;

  if (outcome.stoppedEarly) return outcome;

  if (!opts.outPath.empty()) {
    const std::string artifact = renderArtifact(spec, plan, records);
    std::ofstream out(opts.outPath, std::ios::binary);
    WMSN_REQUIRE_MSG(out.good(),
                     "cannot write campaign artifact: " + opts.outPath);
    out << artifact;
    out.close();
    WMSN_REQUIRE_MSG(out.good(),
                     "failed writing campaign artifact: " + opts.outPath);
  }
  if (!opts.quiet) std::fputs(renderCellTable(plan, records).c_str(), stdout);

  if (!opts.metricsOutPath.empty()) {
    // Seed-order-deterministic merge: iterate the plan (axes outer, seeds
    // innermost), not completion order, so the merged registry is
    // byte-identical for any worker count. Campaign bookkeeping rides in
    // the same registry; scheduling-dependent telemetry only on request.
    obs::MetricsRegistry merged;
    for (const PlannedRun& run : plan) {
      const RunRecord& record = records.at(run.id);
      if (record.ok() && !record.metricsWire.empty())
        merged.merge(obs::MetricsRegistry::fromWire(record.metricsWire));
    }
    merged.counter("wmsn_campaign_runs_total").add(plan.size());
    merged.counter("wmsn_campaign_runs_from_journal")
        .add(outcome.runsFromJournal);
    merged.counter("wmsn_campaign_runs_executed").add(outcome.runsExecuted);
    merged.counter("wmsn_campaign_runs_failed").add(outcome.runsFailed);
    if (opts.workerStats) {
      merged.counter("wmsn_campaign_runs_stolen").add(outcome.pool.stolen);
      merged.counter("wmsn_campaign_worker_crashes")
          .add(outcome.pool.crashes);
      merged.counter("wmsn_campaign_worker_respawns")
          .add(outcome.pool.respawns);
      for (std::size_t w = 0; w < outcome.pool.perWorkerCompleted.size(); ++w)
        merged
            .gauge("wmsn_campaign_worker_runs",
                   {{"worker", std::to_string(w)}})
            .set(static_cast<double>(outcome.pool.perWorkerCompleted[w]));
    }
    merged.writeJson(opts.metricsOutPath);
  }

  return outcome;
}

}  // namespace wmsn::campaign
