// wmsn_campaign — campaign orchestration CLI.
//
// Expands a declarative spec (protocol × topology × workload × fault × seed
// grid) into runs, executes them across a fork-based worker pool with crash
// isolation and resumable checkpointing, and writes one deterministic
// campaign artifact (JSON) with per-cell statistics and paired-seed deltas.
//
//   wmsn_campaign campaigns/fault.spec --out BENCH_fault.json --workers 4
//   wmsn_campaign campaigns/fault.spec --out BENCH_fault.json --resume
//
// The artifact is byte-identical for a given spec regardless of worker
// count, completion order, or how many times the campaign was killed and
// resumed (EXPERIMENTS.md "Campaign orchestration").

#include <cstdlib>
#include <iostream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace {

using namespace wmsn;  // NOLINT

void usage() {
  std::cout <<
      "usage: wmsn_campaign <spec-file> [options]\n"
      "\n"
      "options:\n"
      "  --out <path>          artifact JSON path (default BENCH_<name>.json)\n"
      "  --journal <path>      checkpoint journal   (default <out>.journal)\n"
      "  --resume              load the journal and skip finished runs\n"
      "  --workers <n>         forked worker processes      (default 1)\n"
      "  --metrics-out <path>  merged per-run metrics registries as JSON\n"
      "                        (plan order; requires `metrics = on` in spec)\n"
      "  --worker-stats        add scheduling telemetry (steals, crashes,\n"
      "                        per-worker run counts) to --metrics-out\n"
      "  --stop-after <n>      stop after n fresh runs without writing the\n"
      "                        artifact; exit 3 (deterministic kill, for the\n"
      "                        resume gate)\n"
      "  --flight-recorder-dir <dir>\n"
      "                        arm the crash flight recorder in every worker;\n"
      "                        a dying run dumps its recent packet spans to\n"
      "                        <dir>/flight-<runId>.jsonl\n"
      "  --dry-run             print the expanded plan and exit\n"
      "  --quiet               suppress per-run progress lines and the\n"
      "                        per-cell table\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string specPath;
  campaign::CampaignOptions opts;
  bool dryRun = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--out") {
      opts.outPath = next();
    } else if (arg == "--journal") {
      opts.journalPath = next();
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--workers") {
      opts.workers = parseFlag<unsigned>(arg, next());
    } else if (arg == "--metrics-out") {
      opts.metricsOutPath = next();
    } else if (arg == "--worker-stats") {
      opts.workerStats = true;
    } else if (arg == "--stop-after") {
      opts.stopAfter = parseFlag<std::size_t>(arg, next());
    } else if (arg == "--flight-recorder-dir") {
      opts.flightRecorderDir = next();
    } else if (arg == "--dry-run") {
      dryRun = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else if (specPath.empty()) {
      specPath = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return 2;
    }
  }
  if (specPath.empty()) {
    usage();
    return 2;
  }
  if (opts.workers < 1) {
    std::cerr << "--workers must be >= 1\n";
    return 2;
  }

  try {
    const campaign::CampaignSpec spec = campaign::loadSpec(specPath);
    if (opts.outPath.empty()) opts.outPath = "BENCH_" + spec.name + ".json";
    if (opts.journalPath.empty()) opts.journalPath = opts.outPath + ".journal";

    if (dryRun) {
      const auto plan = campaign::expand(spec);
      std::cout << "campaign '" << spec.name << "': " << plan.size()
                << " runs (" << spec.repeats << " seeds x "
                << plan.size() / spec.repeats << " cells), compare axis '"
                << spec.compareKey << "'\n";
      for (const auto& run : plan) std::cout << "  " << run.id << "\n";
      return 0;
    }

    const campaign::CampaignOutcome outcome = campaign::runCampaign(spec, opts);
    if (!opts.quiet) {
      std::cout << "campaign '" << spec.name << "': " << outcome.runsTotal
                << " runs (" << outcome.runsFromJournal << " from journal, "
                << outcome.runsExecuted << " executed, " << outcome.runsFailed
                << " failed";
      if (outcome.pool.stolen > 0)
        std::cout << ", " << outcome.pool.stolen << " stolen";
      if (outcome.pool.crashes > 0)
        std::cout << ", " << outcome.pool.crashes << " worker crashes";
      std::cout << ")\n";
    }
    if (outcome.stoppedEarly) {
      if (!opts.quiet)
        std::cout << "stopped after --stop-after; resume with --resume\n";
      return 3;
    }
    if (!opts.quiet)
      std::cout << "artifact written to " << opts.outPath << "\n";
    return 0;
  } catch (const wmsn::PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "unexpected error: " << e.what() << "\n";
    return 1;
  }
}
