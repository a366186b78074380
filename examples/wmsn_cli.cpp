// wmsn_cli — a command-line front-end over the whole library: pick a
// protocol, size, attack, and knobs; run; get the full result table.
// The fifth "example", and the tool a downstream user scripts against.
//
//   ./wmsn_cli --protocol secmlr --sensors 150 --gateways 3 --rounds 10
//   ./wmsn_cli --protocol mlr --attack sinkhole --attackers 3 --seed 7
//   ./wmsn_cli --protocol mlr --sleep --lifetime
//   ./wmsn_cli --list

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/wmsn.hpp"
#include "obs/trace_analyze.hpp"
#include "util/parse.hpp"

namespace {

using namespace wmsn;

// Scenario flags are setting keys (core::applySetting): `--sensors 80` is
// the setting `sensors = 80` and a switch such as `--static` is
// `static = on`.
const std::set<std::string> kSettingFlags = {
    "protocol", "sensors",      "gateways",   "places", "area",
    "range",    "rounds",       "packets",    "workload", "rate",
    "queue",    "queue-policy", "deployment", "attack", "attackers",
    "trace-sample"};
const std::set<std::string> kSwitchFlags = {"static", "plan", "sleep",
                                            "reliable", "lossy"};
// The fault flags build tokens of the `fault` setting, applied once after
// the loop. --fault-plan and the MTBF flags arm failover; --link-loss arms
// it only when the loss is on (p > 0); the MTTR flags never do.
struct FaultFlag {
  const char* prefix;
  bool armsFailover;
};
const std::map<std::string, FaultFlag> kFaultFlags = {
    {"node-mtbf", {"smtbf:", true}},
    {"node-mttr", {"smttr:", false}},
    {"gateway-mtbf", {"gwmtbf:", true}},
    {"gateway-mttr", {"gwmttr:", false}},
    {"link-loss", {"loss:", false}},
};

/// `names` sorted, without `none`: the --list spelling.
std::string listNames(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names)
    if (name != "none") out += " " + name;
  return out;
}

void usage() {
  std::cout <<
      "usage: wmsn_cli [options]\n"
      "  --protocol <name>     flooding|gossip|spin|diffusion|leach|pegasis|teen|\n"
      "                        single-sink|spr|mlr|secmlr   (default mlr)\n"
      "  --sensors <n>         sensor count                 (default 100)\n"
      "  --gateways <m>        gateway count                (default 3)\n"
      "  --places <p>          feasible places |P|          (default 6)\n"
      "  --area <metres>       square side                  (default 200)\n"
      "  --range <metres>      radio range                  (default 30)\n"
      "  --rounds <r>          rounds to run                (default 10)\n"
      "  --packets <t>         packets/sensor/round         (default 2)\n"
      "  --seed <s>            RNG seed                     (default 1)\n"
      "  --repeat <k>          run k consecutive seeds, report each + mean\n"
      "  --threads <n>         worker threads for --repeat  (default: cores)\n"
      "  --workload <kind>     legacy|periodic|poisson|burst (default legacy)\n"
      "  --rate <pps>          offered pkt/s/sensor (periodic/poisson), or\n"
      "                        the burst background rate\n"
      "  --queue <cap>         finite MAC transmit queue capacity (0 = off)\n"
      "  --queue-policy <p>    drop-tail|drop-oldest        (default drop-tail)\n"
      "  --deployment <kind>   uniform|grid|clustered       (default uniform)\n"
      "  --static              gateways do not move\n"
      "  --plan                §4.1 planner picks gateway places\n"
      "  --sleep               §4.4 GAF sleep scheduling (MLR only)\n"
      "  --reliable            hop-by-hop ACK forwarding (MLR family)\n"
      "  --lossy               log-distance fringe radio\n"
      "  --lifetime            run to first death (battery scaled down)\n"
      "  --attack <name>       replay|spoof|selective|sinkhole|sybil|\n"
      "                        hello-flood|wormhole|ack-spoof\n"
      "  --attackers <k>       captured-sensor count        (default 3)\n"
      "  --fault-plan <spec>   scheduled crash/recover events, e.g.\n"
      "                        \"gw0@3,gw0+@6,s17@4\" (s<n> sensor, gw<n>\n"
      "                        gateway, + = recovery, @r = round)\n"
      "  --node-mtbf <rounds>  mean rounds between random sensor crashes\n"
      "  --node-mttr <rounds>  mean rounds until a crashed sensor recovers\n"
      "  --gateway-mtbf <r>    mean rounds between random gateway failures\n"
      "  --gateway-mttr <r>    mean rounds until a failed gateway recovers\n"
      "  --link-loss <p>       Gilbert-Elliott bursty loss, steady-state\n"
      "                        fraction p in [0,1)\n"
      "  --no-failover         keep legacy routing under faults (fault flags\n"
      "                        otherwise enable MLR failover + SPR backoff)\n"
      "  --svg <path>          write the final topology/energy heat map of a\n"
      "                        single run (not with --repeat)\n"
      "  --trace-spans <path>  write causal per-reading lifecycle spans as\n"
      "                        Chrome-trace-event JSONL (--repeat merges all\n"
      "                        seeds in order; byte-identical at any --threads)\n"
      "  --trace-sample <f>    head-sample fraction of readings in (0,1]\n"
      "                        traced (deterministic hash of uid; default 1)\n"
      "  --trace-analyze <p>   analyze a span JSONL file: reconstruct delivery\n"
      "                        paths, route flaps, reroute latency, drop\n"
      "                        attribution; print the report and exit\n"
      "                        (--metrics-out adds wmsn_trace_* metrics JSON)\n"
      "  --flight-recorder <p> arm the crash flight recorder: on invariant\n"
      "                        failure or fatal signal, dump the last spans\n"
      "                        from the in-memory ring to <p>\n"
      "  --metrics-out <path>  write the end-of-run metrics registry as JSON\n"
      "  --timeseries-out <p>  write the per-round time series (CSV, or JSON\n"
      "                        for a .json path; --repeat concatenates CSV)\n"
      "  --perf-out <path>     count deterministic hot-path work (frames,\n"
      "                        O(n^2) pairs examined, RNG draws, ...) and\n"
      "                        write them with resource telemetry (peak RSS,\n"
      "                        allocations, rounds/sec) as JSON; --repeat\n"
      "                        merges all seeds in order\n"
      "  --profile             time simulation phases, print the table\n"
      "  --list                print available protocols/attacks and exit\n";
}

/// The --perf-out document: the deterministic counter ledger twice (raw
/// key→count object and the labelled wmsn_perf_* registry) plus the
/// non-deterministic resource telemetry under its own key. Deterministic
/// counters and wall-clock telemetry never mix.
void writePerfJson(const std::string& path, const std::string& protocol,
                   const obs::PerfStats& perf,
                   const obs::ResourceTelemetry& telemetry) {
  obs::MetricsRegistry registry;
  core::fillPerfMetrics(protocol, perf, registry);
  std::string metricsJson = registry.json();
  while (!metricsJson.empty() && metricsJson.back() == '\n')
    metricsJson.pop_back();
  std::ofstream out(path, std::ios::binary);
  out << "{\n\"counters\": " << perf.json() << ",\n\"metrics\": "
      << metricsJson << ",\n\"telemetry\": " << telemetry.json() << "\n}\n";
}

/// CSV by default; a `.json` path selects the JSON array form instead.
void writeTimeseries(const obs::TimeSeriesRecorder& series,
                     const std::string& path, const std::string& runLabel) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json)
    series.writeJson(path);
  else
    series.writeCsv(path, runLabel);
  std::cout << "(time series with " << series.rounds()
            << " rounds written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioConfig cfg;
  cfg.rounds = 10;
  cfg.packetsPerSensorPerRound = 2;
  cfg.attackerCount = 3;
  std::string svgPath;
  std::string metricsPath;
  std::string timeseriesPath;
  std::string perfPath;
  std::string traceSpansPath;
  std::string traceAnalyzePath;
  unsigned repeat = 1;
  unsigned threads = 0;
  std::optional<std::string> faultPlan;  // --fault-plan; the last one wins
  std::vector<std::string> faultTokens;  // the other fault flags, in order
  bool armFailover = false;
  bool noFailover = false;

  std::string arg;  // the flag being read, named in error messages
  try {
    for (int i = 1; i < argc; ++i) {
      arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << "missing value for " << arg << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      const std::string key = arg.rfind("--", 0) == 0 ? arg.substr(2) : "";
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--list") {
        std::cout << "protocols:" << listNames(core::settingNames("protocol"))
                  << "\nattacks:" << listNames(core::settingNames("attack"))
                  << "\n";
        return 0;
      } else if (kSettingFlags.count(key)) {
        core::applySetting(cfg, key, next());
      } else if (kSwitchFlags.count(key)) {
        core::applySetting(cfg, key, "on");
      } else if (const auto fault = kFaultFlags.find(key);
                 fault != kFaultFlags.end()) {
        faultTokens.push_back(fault->second.prefix + next());
        armFailover = armFailover || fault->second.armsFailover;
      } else if (arg == "--fault-plan") {
        faultPlan = next();
        armFailover = true;
      } else if (arg == "--seed") {
        cfg.seed = parseFlag<std::uint64_t>(arg, next());
      } else if (arg == "--repeat") {
        repeat = parseFlag<unsigned>(arg, next());
      } else if (arg == "--threads") {
        threads = parseFlag<unsigned>(arg, next());
      } else if (arg == "--no-failover") {
        noFailover = true;
      } else if (arg == "--svg") {
        svgPath = next();
      } else if (arg == "--trace-spans") {
        traceSpansPath = next();
        cfg.obs.traceSpans = true;
      } else if (arg == "--trace-analyze") {
        traceAnalyzePath = next();
      } else if (arg == "--flight-recorder") {
        obs::setFlightRecorderPath(next());
      } else if (arg == "--metrics-out") {
        metricsPath = next();
        cfg.obs.metrics = true;
      } else if (arg == "--timeseries-out") {
        timeseriesPath = next();
        cfg.obs.timeseries = true;
      } else if (arg == "--perf-out") {
        perfPath = next();
        cfg.obs.perf = true;
      } else if (arg == "--profile") {
        cfg.obs.profile = true;
      } else if (arg == "--lifetime") {
        cfg.stopAtFirstDeath = true;
        cfg.rounds = 1000;
        cfg.energy.initialEnergyJ = 0.1;
      } else {
        std::cerr << "unknown option: " << arg << " (try --help)\n";
        return 2;
      }
    }

    if (faultPlan) faultTokens.push_back(*faultPlan);
    if (!faultTokens.empty()) {
      arg = "fault flags";
      std::string value;
      for (const std::string& token : faultTokens)
        value += (value.empty() ? "" : ";") + token;
      core::applySetting(cfg, "fault", value);
      // Fault runs get the hardened routing by default: MLR/SecMLR
      // heartbeat failover and SPR discovery backoff. --no-failover
      // ablates back to the legacy behaviour for comparison.
      if ((armFailover || cfg.faults.linkLoss.enabled) && !noFailover)
        core::applySetting(cfg, "failover", "on");
    }
    if (repeat > 1 && !svgPath.empty()) {
      // The topology picture is of one run; --repeat keeps no scenario.
      std::cerr << "--svg draws a single run and cannot be combined with "
                   "--repeat\n";
      return 2;
    }
  } catch (const std::exception& e) {
    // A bad flag or setting value: exit 2 naming the flag.
    std::cerr << "bad " << arg << ": " << e.what() << "\n";
    return 2;
  }

  if (!traceAnalyzePath.empty()) {
    // Standalone analytics mode: no simulation — reconstruct reading fates
    // from a previously exported span JSONL file.
    std::ifstream in(traceAnalyzePath, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open trace file: " << traceAnalyzePath << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const auto spans = obs::parseTraceJsonl(buf.str());
      const obs::TraceAnalysis analysis = obs::analyzeSpans(spans);
      std::cout << obs::analysisReport(analysis);
      if (!metricsPath.empty()) {
        obs::MetricsRegistry registry;
        obs::fillTraceMetrics(analysis, registry);
        registry.writeJson(metricsPath);
        std::cout << "(trace metrics written to " << metricsPath << ")\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  try {
    cfg.validate();
    if (repeat > 1) {
      // Multi-seed capacity sweep: k independent runs fan out over the
      // thread pool; the table reports each seed plus the mean.
      const auto configs = core::expandSeeds(cfg, repeat);
      std::vector<std::string> labels;
      for (const auto& c : configs)
        labels.push_back("seed " + std::to_string(c.seed));
      const auto results = core::runScenariosParallel(configs, threads);
      for (const auto& r : results) std::cout << core::summaryLine(r) << "\n";
      std::cout << "\n";
      core::printSection(std::cout,
                         "per-seed results (" + std::to_string(repeat) +
                             " runs, workload " +
                             workload::toString(cfg.workload.kind) + ")",
                         core::comparisonTable(results, labels));
      if (cfg.macQueue.capacity > 0 ||
          cfg.workload.kind != workload::WorkloadKind::kLegacyRounds)
        core::printSection(std::cout, "congestion",
                           core::congestionTable(results, labels));
      std::cout << "mean PDR " << std::fixed
                << core::meanOver(results,
                                  [](const core::RunResult& r) {
                                    return r.deliveryRatio;
                                  })
                << ", mean queue drops "
                << core::meanOver(results,
                                  [](const core::RunResult& r) {
                                    return static_cast<double>(r.queueDrops);
                                  })
                << "\n";
      // Observability outputs merge in seed order (the input order of the
      // sweep), so they are byte-identical for any --threads value.
      if (!metricsPath.empty()) {
        obs::MetricsRegistry merged;
        for (const auto& r : results)
          if (r.observations) merged.merge(r.observations->metrics);
        merged.writeJson(metricsPath);
        std::cout << "(metrics for " << repeat << " seeds written to "
                  << metricsPath << ")\n";
      }
      if (!timeseriesPath.empty()) {
        std::optional<CsvWriter> csv;
        std::size_t rows = 0;
        for (std::size_t k = 0; k < results.size(); ++k) {
          if (!results[k].observations) continue;
          const auto& series = results[k].observations->timeseries;
          if (!csv) csv.emplace(series.csvHeader());
          series.appendCsv(*csv, labels[k]);
          rows += series.rounds();
        }
        if (csv) csv->writeFile(timeseriesPath);
        std::cout << "(time series with " << rows << " rounds written to "
                  << timeseriesPath << ")\n";
      }
      if (!traceSpansPath.empty()) {
        // Span logs concatenate in seed order — the sweep's input order —
        // so the merged JSONL is byte-identical at any --threads value.
        std::string merged;
        std::size_t spans = 0;
        for (const auto& r : results) {
          if (!r.observations) continue;
          merged += r.observations->trace.jsonl();
          spans += r.observations->trace.spans.size();
        }
        std::ofstream out(traceSpansPath, std::ios::binary);
        out << merged;
        std::cout << "(" << spans << " spans for " << repeat
                  << " seeds written to " << traceSpansPath << ")\n";
      }
      if (!perfPath.empty()) {
        // Counter ledgers merge in seed order like every other obs output;
        // sums are order-independent, so the file is byte-identical at any
        // --threads value. Telemetry sums wall/work and takes the max RSS.
        obs::PerfStats mergedPerf;
        obs::ResourceTelemetry mergedTelemetry;
        for (const auto& r : results) {
          if (!r.observations || !r.observations->perfCounted) continue;
          mergedPerf.merge(r.observations->perf);
          mergedTelemetry.merge(r.observations->telemetry);
        }
        writePerfJson(perfPath, core::toString(cfg.protocol), mergedPerf,
                      mergedTelemetry);
        std::cout << "(perf counters for " << repeat << " seeds written to "
                  << perfPath << ")\n";
      }
      if (cfg.obs.profile) {
        obs::Profiler merged;
        for (const auto& r : results)
          if (r.observations) merged.merge(r.observations->profiler);
        core::printSection(std::cout,
                           "phase profile (all seeds)", merged.table());
      }
      return 0;
    }
    auto scenario = core::buildScenario(cfg);
    core::Experiment experiment(*scenario);
    const auto result = experiment.run();
    if (!svgPath.empty()) {
      core::writeTopologySvg(*scenario, svgPath);
      std::cout << "(topology SVG written to " << svgPath << ")\n";
    }
    if (!traceSpansPath.empty() && result.observations) {
      result.observations->trace.writeFile(traceSpansPath);
      std::cout << "(" << result.observations->trace.spans.size()
                << " spans written to " << traceSpansPath << ")\n";
    }
    if (!metricsPath.empty() && result.observations) {
      result.observations->metrics.writeJson(metricsPath);
      std::cout << "(metrics written to " << metricsPath << ")\n";
    }
    if (!timeseriesPath.empty() && result.observations)
      writeTimeseries(result.observations->timeseries, timeseriesPath,
                      "seed " + std::to_string(cfg.seed));
    if (!perfPath.empty() && result.observations) {
      writePerfJson(perfPath, result.protocol, result.observations->perf,
                    result.observations->telemetry);
      std::cout << "(perf counters written to " << perfPath << ")\n";
    }
    std::cout << core::summaryLine(result) << "\n\n";
    core::printSection(std::cout, "result",
                       core::comparisonTable({result}));
    if (cfg.macQueue.capacity > 0 ||
        cfg.workload.kind != workload::WorkloadKind::kLegacyRounds)
      core::printSection(std::cout, "congestion",
                         core::congestionTable({result}));
    if (!result.perGatewayDeliveries.empty())
      core::printSection(std::cout, "per-gateway load",
                         core::gatewayLoadTable(result));
    if (cfg.faults.any()) {
      const auto& f = result.faults;
      std::cout << "faults: sensor crashes=" << f.sensorCrashes << " (recovered "
                << f.sensorRecoveries << "), gateway failures="
                << f.gatewayFailures << " (recovered " << f.gatewayRecoveries
                << "), link drops=" << f.linkFaultDrops << "\n"
                << "outages: episodes=" << f.outageEpisodes << " (unrecovered "
                << f.unrecoveredOutages << "), mean recovery latency="
                << f.meanRecoveryLatencyS << " s, PDR during outage="
                << f.pdrDuringOutage << "\n";
    }
    if (result.rejectedMacs + result.rejectedReplays + result.rejectedTesla >
        0)
      std::cout << "security rejections: mac=" << result.rejectedMacs
                << " replay=" << result.rejectedReplays
                << " tesla=" << result.rejectedTesla << "\n";
    if (cfg.attack.kind != attacks::AttackKind::kNone)
      std::cout << "attacker actions: dropped="
                << result.attackerStats.framesDropped
                << " forged=" << result.attackerStats.framesForged
                << " replayed=" << result.attackerStats.framesReplayed
                << " tunnelled=" << result.attackerStats.framesTunnelled
                << "\n";
    if (cfg.obs.profile && result.observations)
      core::printSection(std::cout, "phase profile",
                         result.observations->profiler.table());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
