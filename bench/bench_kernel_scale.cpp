// bench_kernel_scale — the kernel-scaling curve (ROADMAP item 1):
// rounds/sec, frames/sec, grid candidates examined, and peak RSS vs node
// count on the CURRENT round-loop kernel (spatial-grid neighbor index +
// active set, docs/KERNEL.md). The committed BENCH_kernel.json is the
// campaign-driven version of this curve (campaigns/kernel_scale.spec); this
// binary is the quick local view and the place to eyeball a kernel change
// before re-running the campaign.
//
// Scenario shape (same as the spec): grid deployment at a fixed ~20 m pitch
// (constant density, guaranteed connectivity at range 30), two static
// gateways, MLR, and a Poisson workload whose per-sensor rate shrinks as
// 1/n so the OFFERED load is the same at every size — the curve then
// isolates kernel cost (medium delivery + neighbor queries) from protocol
// load.
//
// Peak RSS is process-wide and monotone (getrusage), so points run in
// increasing size order: each point's RSS is dominated by its own
// footprint. The campaign runs each point in its own worker process and
// reports true per-run RSS.
//
//   ./bench_kernel_scale                 # 1k → 16k (quick)
//   ./bench_kernel_scale --max-nodes 64000   # the full committed curve

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/table.hpp"

namespace {

using namespace wmsn;

struct CurvePoint {
  std::size_t sensors;
  double area;    ///< square side for a ~20 m grid pitch
  double rate;    ///< Poisson readings/sensor/sec (~70 total offered pkt/s)
};

// The committed curve sizes. area = 20·sqrt(n); rate = 70/n. The 256k
// point only became reachable with the spatial-grid kernel (docs/KERNEL.md)
// — under the old all-pairs medium scan it would have examined ~4×10¹¹
// candidate pairs.
const std::vector<CurvePoint> kCurve = {
    {1000, 630.0, 0.07},
    {4000, 1270.0, 0.0175},
    {16000, 2530.0, 0.0044},
    {64000, 5060.0, 0.0011},
    {256000, 10120.0, 0.000273},
};

core::ScenarioConfig pointConfig(const CurvePoint& p) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.deployment = core::DeploymentKind::kGrid;
  cfg.sensorCount = p.sensors;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = cfg.height = p.area;
  cfg.gatewaysMove = false;
  cfg.rounds = 2;
  cfg.workload.kind = workload::WorkloadKind::kPoisson;
  cfg.workload.ratePerSensor = p.rate;
  cfg.seed = 31;
  cfg.obs.perf = true;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wmsn;

  std::size_t maxNodes = 16000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-nodes" && i + 1 < argc)
      maxNodes = parseFlag<std::size_t>(arg, argv[++i]);
    else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--max-nodes <n>] [--csv <path>]\n"
                   "  --max-nodes <n>  largest curve point to run "
                   "(default 16000; 256000 = full committed curve)\n";
      return 0;
    }
  }
  const bench::BenchArgs args = bench::parseArgs(argc, argv);

  bench::banner(
      "bench_kernel_scale",
      "kernel work and throughput vs node count (current round-loop kernel)",
      "ROADMAP item 1: pairs examined must stay ~O(n*k) (spatial grid, "
      "docs/KERNEL.md) -- the pre-grid kernel grew O(n^2)");

  CsvWriter csv({"sensors", "rounds_per_sec", "frames_per_sec",
                 "pairs_examined", "rng_draws", "frames_transmitted", "pdr",
                 "peak_rss_kb", "wall_seconds"});
  TextTable table({"sensors", "rounds/s", "frames/s", "pairs examined",
                   "peak RSS MB", "wall s", "PDR"});

  for (const CurvePoint& p : kCurve) {
    if (p.sensors > maxNodes) break;
    const auto result = core::runScenario(pointConfig(p));
    const core::RunObservations& run = *result.observations;
    const obs::ResourceTelemetry& tel = run.telemetry;
    const std::uint64_t pairs =
        run.perf.value(obs::PerfCounter::kPairsExamined);
    table.addRow({TextTable::num(p.sensors), TextTable::num(tel.roundsPerSec(), 3),
                  TextTable::num(tel.framesPerSec(), 1),
                  TextTable::num(pairs),
                  TextTable::num(static_cast<double>(tel.peakRssKb) / 1024.0, 1),
                  TextTable::num(tel.wallSeconds, 2),
                  TextTable::num(result.deliveryRatio, 3)});
    csv.addRow({TextTable::num(p.sensors), TextTable::num(tel.roundsPerSec(), 6),
                TextTable::num(tel.framesPerSec(), 3), TextTable::num(pairs),
                TextTable::num(run.perf.value(obs::PerfCounter::kRngDraws)),
                TextTable::num(
                    run.perf.value(obs::PerfCounter::kFramesTransmitted)),
                TextTable::num(result.deliveryRatio, 4),
                TextTable::num(tel.peakRssKb),
                TextTable::num(tel.wallSeconds, 4)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";

  core::printSection(std::cout, "kernel scaling curve", table);
  std::cout << "pairs examined counts grid candidates: ~constant per "
               "transmission at fixed density (O(n*k) total). The pre-grid "
               "kernel examined every node per transmission (O(n^2)).\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
