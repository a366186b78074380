// BALANCE — exercises the MLR design objective of §5.3, equations (1)–(6):
// minimise total energy ΣEᵢ AND the balance variance
// D² = Σ(Eᵢ − E̅)². Reports both, plus Jain fairness and the max/mean hot-spot
// ratio, per protocol, after a fixed workload.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("BALANCE", "per-sensor energy balance (eq. 1 objective)",
                "MLR minimises variance D² subject to minimal total ΣEᵢ "
                "(§5.3 eqs. (1)–(6))");

  struct Case {
    core::ProtocolKind protocol;
    std::size_t gateways;
    bool move;
    bool energyAware;
    const char* label;
  };
  const std::vector<Case> cases = {
      {core::ProtocolKind::kFlooding, 3, false, false, "flooding"},
      {core::ProtocolKind::kSingleSink, 1, false, false, "single-sink"},
      {core::ProtocolKind::kLeach, 1, false, false, "leach"},
      {core::ProtocolKind::kSpr, 3, false, false, "spr"},
      {core::ProtocolKind::kMlr, 3, false, false, "mlr (static gw)"},
      {core::ProtocolKind::kMlr, 3, true, false, "mlr (mobile gw)"},
      {core::ProtocolKind::kMlr, 3, true, true,
       "mlr + energy-aware selection (extension)"},
  };
  constexpr std::array<std::uint64_t, 3> kSeeds = {3, 5, 7};

  std::vector<core::ScenarioConfig> configs;
  for (const Case& c : cases) {
    for (std::uint64_t seed : kSeeds) {
      core::ScenarioConfig cfg;
      cfg.protocol = c.protocol;
      cfg.sensorCount = 150;
      cfg.gatewayCount = c.gateways;
      cfg.feasiblePlaceCount = 6;
      cfg.gatewaysMove = c.move;
      cfg.mlr.energyAwareSelection = c.energyAware;
      cfg.width = 240;
      cfg.height = 240;
      cfg.rounds = 10;
      cfg.packetsPerSensorPerRound = 2;
      cfg.seed = seed;
      configs.push_back(cfg);
    }
  }

  const auto results = core::runScenariosParallel(configs, args.threads);

  TextTable table({"protocol", "total ΣEᵢ mJ", "D² (uJ²)", "Jain",
                   "max/mean", "PDR"});
  CsvWriter csv({"protocol", "total_mj", "d2_uj2", "jain", "max_over_mean",
                 "pdr"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<core::RunResult> slice(
        results.begin() + static_cast<long>(i * kSeeds.size()),
        results.begin() + static_cast<long>((i + 1) * kSeeds.size()));
    const double total = core::meanOver(slice, [](const core::RunResult& r) {
      return r.sensorEnergy.totalJ * 1e3;
    });
    const double d2 = core::meanOver(slice, [](const core::RunResult& r) {
      return r.sensorEnergy.varianceD2 * 1e6;
    });
    const double jain = core::meanOver(slice, [](const core::RunResult& r) {
      return r.sensorEnergy.jainFairness;
    });
    const double hotspot =
        core::meanOver(slice, [](const core::RunResult& r) {
          return r.sensorEnergy.meanJ > 0
                     ? r.sensorEnergy.maxJ / r.sensorEnergy.meanJ
                     : 0.0;
        });
    const double pdr = core::meanOver(
        slice, [](const core::RunResult& r) { return r.deliveryRatio; });
    table.addRow({cases[i].label, TextTable::num(total, 2),
                  TextTable::num(d2, 1), TextTable::num(jain, 3),
                  TextTable::num(hotspot, 2), TextTable::num(pdr, 3)});
    csv.addRow({cases[i].label, TextTable::num(total, 3),
                TextTable::num(d2, 2), TextTable::num(jain, 4),
                TextTable::num(hotspot, 3), TextTable::num(pdr, 4)});
  }
  core::printSection(
      std::cout, "energy balance, 150 sensors, 10 rounds (3 seeds averaged)",
      table);
  std::cout << "expected shape: single-sink shows the worst hot-spot ratio "
               "(relays at the sink), multi-gateway MLR the best Jain index; "
               "gateway mobility further narrows the spread.\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
