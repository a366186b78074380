// OFFLOAD — workload-engine capacity curves: delivery ratio, latency and
// congestion drops vs offered load, for the paper's three routing designs
// (SPR, MLR, SecMLR) under two traffic processes (Poisson and CBR), plus an
// event-front burst showcase. The offered-load axis is what the related WMN
// capacity literature evaluates and the original paper's fixed
// one-reading-per-round model cannot express.
//
// Shape to expect: below the network's saturation point PDR is flat and
// queue drops are zero; past it the finite MAC transmit queues overflow,
// PDR falls monotonically and latency climbs.
//
//   ./bench_offered_load [--csv out.csv] [--json out.json] [--threads n]
//                        [--seeds k]

#include <fstream>
#include <sstream>

#include "bench_util.hpp"

namespace {

using namespace wmsn;

constexpr std::size_t kSensors = 80;
constexpr std::size_t kQueueCapacity = 8;

const std::vector<core::ProtocolKind> kProtocols = {
    core::ProtocolKind::kSpr, core::ProtocolKind::kMlr,
    core::ProtocolKind::kSecMlr};

const std::vector<workload::WorkloadKind> kGenerators = {
    workload::WorkloadKind::kPoisson, workload::WorkloadKind::kPeriodic};

// Per-sensor offered rates in packets/second. The low end sits well under
// the CSMA channel's capacity; the top end is deep into saturation.
const std::vector<double> kRates = {0.1, 0.25, 0.5, 1.0, 2.0, 3.0};

core::ScenarioConfig baseConfig(core::ProtocolKind protocol,
                                workload::WorkloadKind generator, double rate,
                                std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.sensorCount = kSensors;
  cfg.gatewayCount = 3;
  cfg.feasiblePlaceCount = 6;
  cfg.width = 200;
  cfg.height = 200;
  cfg.rounds = 6;
  cfg.workload.kind = generator;
  cfg.workload.ratePerSensor = rate;
  cfg.workload.burst.backgroundRate = rate;  // burst showcase reuses `rate`
  cfg.macQueue.capacity = kQueueCapacity;
  cfg.seed = seed;
  // Every run records its per-round trajectory; --csv writes them next to
  // the summary so saturation onset is visible round by round.
  cfg.obs.timeseries = true;
  return cfg;
}

std::string runLabel(const core::ScenarioConfig& cfg, double rate) {
  return core::toString(cfg.protocol) + "/" +
         workload::toString(cfg.workload.kind) + "/r" +
         TextTable::num(rate, 2) + "/s" + std::to_string(cfg.seed);
}

/// `out.csv` → `out.timeseries.csv` (or plain append when no .csv suffix).
std::string timeseriesPath(const std::string& csvPath) {
  const std::string suffix = ".csv";
  if (csvPath.size() > suffix.size() &&
      csvPath.compare(csvPath.size() - suffix.size(), suffix.size(),
                      suffix) == 0)
    return csvPath.substr(0, csvPath.size() - suffix.size()) +
           ".timeseries.csv";
  return csvPath + ".timeseries.csv";
}

struct Point {
  std::string protocol;
  std::string generator;
  double rate = 0.0;
  double offeredPps = 0.0;
  double goodputPps = 0.0;
  double pdr = 0.0;
  double meanLatencyMs = 0.0;
  double p95LatencyMs = 0.0;
  double queueDrops = 0.0;
  double macDrops = 0.0;
  double collisions = 0.0;
  double peakQueueDepth = 0.0;
  double meanQueueDepth = 0.0;
};

Point averagePoint(const std::vector<core::RunResult>& runs) {
  Point p;
  p.protocol = runs.front().protocol;
  p.generator = runs.front().workload;
  p.offeredPps = core::meanOver(runs, [](const auto& r) { return r.offeredPps; });
  p.goodputPps = core::meanOver(runs, [](const auto& r) { return r.goodputPps; });
  p.pdr = core::meanOver(runs, [](const auto& r) { return r.deliveryRatio; });
  p.meanLatencyMs =
      core::meanOver(runs, [](const auto& r) { return r.meanLatencyMs; });
  p.p95LatencyMs =
      core::meanOver(runs, [](const auto& r) { return r.p95LatencyMs; });
  p.queueDrops = core::meanOver(
      runs, [](const auto& r) { return static_cast<double>(r.queueDrops); });
  p.macDrops = core::meanOver(
      runs, [](const auto& r) { return static_cast<double>(r.macDrops); });
  p.collisions = core::meanOver(
      runs, [](const auto& r) { return static_cast<double>(r.collisions); });
  p.peakQueueDepth = core::meanOver(runs, [](const auto& r) {
    return static_cast<double>(r.peakQueueDepth);
  });
  p.meanQueueDepth =
      core::meanOver(runs, [](const auto& r) { return r.meanQueueDepth; });
  return p;
}

std::string jsonEscapeless(const Point& p) {
  std::ostringstream os;
  os << "{\"protocol\":\"" << p.protocol << "\",\"generator\":\""
     << p.generator << "\",\"rate_pps_per_sensor\":" << p.rate
     << ",\"offered_pps\":" << p.offeredPps << ",\"goodput_pps\":"
     << p.goodputPps << ",\"pdr\":" << p.pdr << ",\"mean_latency_ms\":"
     << p.meanLatencyMs << ",\"p95_latency_ms\":" << p.p95LatencyMs
     << ",\"queue_drops\":" << p.queueDrops << ",\"mac_drops\":" << p.macDrops
     << ",\"collisions\":" << p.collisions << ",\"peak_queue_depth\":"
     << p.peakQueueDepth << ",\"mean_queue_depth\":" << p.meanQueueDepth
     << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv);
  std::string jsonPath;
  unsigned seeds = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) jsonPath = argv[++i];
    if (arg == "--seeds" && i + 1 < argc)
      seeds = parseFlag<unsigned>(arg, argv[++i]);
  }
  if (seeds == 0) seeds = 1;

  bench::banner(
      "OFFLOAD", "offered-load capacity curves (workload engine)",
      "continuous sensing traffic at increasing offered load saturates the "
      "shared channel; finite MAC queues localise the congestion loss");

  // One config per (protocol, generator, rate, seed); all runs fan out over
  // the thread pool at once.
  std::vector<core::ScenarioConfig> configs;
  std::vector<std::string> runLabels;
  for (core::ProtocolKind protocol : kProtocols)
    for (workload::WorkloadKind generator : kGenerators)
      for (double rate : kRates)
        for (unsigned s = 0; s < seeds; ++s) {
          configs.push_back(baseConfig(protocol, generator, rate, 40 + s));
          runLabels.push_back(runLabel(configs.back(), rate));
        }
  const auto results = core::runScenariosParallel(configs, args.threads);

  // Per-round trajectories of every run, concatenated under run labels
  // (protocol/generator/rate/seed). Input order, so --threads never changes
  // the bytes.
  std::optional<CsvWriter> seriesCsv;
  auto appendSeries = [&seriesCsv](const core::RunResult& r,
                                   const std::string& label) {
    if (!r.observations) return;
    const auto& series = r.observations->timeseries;
    if (!seriesCsv) seriesCsv.emplace(series.csvHeader());
    series.appendCsv(*seriesCsv, label);
  };
  for (std::size_t i = 0; i < results.size(); ++i)
    appendSeries(results[i], runLabels[i]);

  std::vector<Point> points;
  std::size_t cursor = 0;
  for (core::ProtocolKind protocol : kProtocols) {
    (void)protocol;
    for (workload::WorkloadKind generator : kGenerators) {
      (void)generator;
      for (double rate : kRates) {
        std::vector<core::RunResult> group(
            results.begin() + static_cast<std::ptrdiff_t>(cursor),
            results.begin() + static_cast<std::ptrdiff_t>(cursor + seeds));
        cursor += seeds;
        Point p = averagePoint(group);
        p.rate = rate;
        points.push_back(std::move(p));
      }
    }
  }

  CsvWriter csv({"protocol", "generator", "rate_pps_per_sensor",
                 "offered_pps", "goodput_pps", "pdr", "mean_latency_ms",
                 "p95_latency_ms", "queue_drops", "mac_drops", "collisions",
                 "peak_queue_depth", "mean_queue_depth"});
  for (const auto& generator : kGenerators) {
    const std::string genName = workload::toString(generator);
    TextTable table({"protocol", "rate/sensor", "offered pps", "goodput pps",
                     "PDR", "mean lat ms", "p95 lat ms", "queue drops",
                     "peak queue"});
    for (const Point& p : points) {
      if (p.generator != genName) continue;
      table.addRow({p.protocol, TextTable::num(p.rate, 2),
                    TextTable::num(p.offeredPps, 1),
                    TextTable::num(p.goodputPps, 1), TextTable::num(p.pdr, 3),
                    TextTable::num(p.meanLatencyMs, 1),
                    TextTable::num(p.p95LatencyMs, 1),
                    TextTable::num(p.queueDrops, 0),
                    TextTable::num(p.peakQueueDepth, 0)});
      csv.addRow({p.protocol, p.generator, TextTable::num(p.rate, 3),
                  TextTable::num(p.offeredPps, 2),
                  TextTable::num(p.goodputPps, 2), TextTable::num(p.pdr, 4),
                  TextTable::num(p.meanLatencyMs, 2),
                  TextTable::num(p.p95LatencyMs, 2),
                  TextTable::num(p.queueDrops, 1),
                  TextTable::num(p.macDrops, 1),
                  TextTable::num(p.collisions, 1),
                  TextTable::num(p.peakQueueDepth, 1),
                  TextTable::num(p.meanQueueDepth, 3)});
    }
    core::printSection(std::cout,
                       "capacity curve — " + genName + " generator, " +
                           std::to_string(kSensors) + " sensors, queue cap " +
                           std::to_string(kQueueCapacity),
                       table);
  }

  // Event-front showcase: the burst generator sweeps a correlated report
  // wave across the field — the congestion is localised under the front.
  {
    std::vector<core::ScenarioConfig> burstConfigs;
    for (core::ProtocolKind protocol : kProtocols) {
      core::ScenarioConfig cfg =
          baseConfig(protocol, workload::WorkloadKind::kBurst, 0.02, 40);
      cfg.workload.burst.frontSpeed = 15.0;
      cfg.workload.burst.radius = 60.0;
      cfg.workload.burst.reportInterval = 0.4;
      burstConfigs.push_back(cfg);
    }
    const auto burstRuns =
        core::runScenariosParallel(burstConfigs, args.threads);
    for (const auto& r : burstRuns)
      appendSeries(r, r.protocol + "/burst/r0.02/s40");
    TextTable table({"protocol", "offered pps", "goodput pps", "PDR",
                     "p95 lat ms", "queue drops", "peak queue"});
    for (const auto& r : burstRuns) {
      table.addRow({r.protocol, TextTable::num(r.offeredPps, 1),
                    TextTable::num(r.goodputPps, 1),
                    TextTable::num(r.deliveryRatio, 3),
                    TextTable::num(r.p95LatencyMs, 1),
                    TextTable::num(static_cast<double>(r.queueDrops), 0),
                    TextTable::num(static_cast<double>(r.peakQueueDepth), 0)});
      Point p;
      p.protocol = r.protocol;
      p.generator = r.workload;
      p.rate = 0.02;
      p.offeredPps = r.offeredPps;
      p.goodputPps = r.goodputPps;
      p.pdr = r.deliveryRatio;
      p.meanLatencyMs = r.meanLatencyMs;
      p.p95LatencyMs = r.p95LatencyMs;
      p.queueDrops = static_cast<double>(r.queueDrops);
      p.macDrops = static_cast<double>(r.macDrops);
      p.collisions = static_cast<double>(r.collisions);
      p.peakQueueDepth = static_cast<double>(r.peakQueueDepth);
      p.meanQueueDepth = r.meanQueueDepth;
      points.push_back(std::move(p));
      csv.addRow({r.protocol, r.workload, "0.02",
                  TextTable::num(r.offeredPps, 2),
                  TextTable::num(r.goodputPps, 2),
                  TextTable::num(r.deliveryRatio, 4),
                  TextTable::num(r.meanLatencyMs, 2),
                  TextTable::num(r.p95LatencyMs, 2),
                  TextTable::num(static_cast<double>(r.queueDrops), 1),
                  TextTable::num(static_cast<double>(r.macDrops), 1),
                  TextTable::num(static_cast<double>(r.collisions), 1),
                  TextTable::num(static_cast<double>(r.peakQueueDepth), 1),
                  TextTable::num(r.meanQueueDepth, 3)});
    }
    core::printSection(std::cout, "event-front burst showcase", table);
  }

  std::cout << "expected shape: PDR flat and queue drops ~0 below "
               "saturation; past it goodput plateaus at channel capacity, "
               "queue drops grow and PDR falls monotonically.\n";

  bench::maybeWriteCsv(args, csv);
  if (args.csvPath && seriesCsv) {
    const std::string path = timeseriesPath(*args.csvPath);
    seriesCsv->writeFile(path);
    std::cout << "(per-round time series written to " << path << ")\n";
  }
  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    out << "[\n";
    for (std::size_t i = 0; i < points.size(); ++i)
      out << "  " << jsonEscapeless(points[i])
          << (i + 1 < points.size() ? ",\n" : "\n");
    out << "]\n";
    std::cout << "(json written to " << jsonPath << ")\n";
  }
  return 0;
}
