// LIFETIME — the paper's headline metric (§5.3): "we define network
// lifetime as the time when the first sensor node drains its energy."
// Compares rounds-to-first-death across all implemented protocols on both
// even (grid-like uniform) and uneven (clustered) deployments, the two
// regimes §5.2/§5.3 distinguish: SPR "has good performance for sensor
// networks with nodes distributed evenly", MLR targets the uneven case.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("LIFETIME", "rounds to first sensor death, per protocol",
                "MLR maximises lifetime; flat/single-sink baselines exhaust "
                "nodes near the sink first (§1, §5.3)");

  struct Case {
    core::ProtocolKind protocol;
    std::size_t gateways;
    bool move;
  };
  const std::vector<Case> cases = {
      {core::ProtocolKind::kFlooding, 3, false},
      {core::ProtocolKind::kSingleSink, 1, false},
      {core::ProtocolKind::kLeach, 1, false},
      {core::ProtocolKind::kPegasis, 1, false},
      {core::ProtocolKind::kSpr, 3, false},
      {core::ProtocolKind::kMlr, 3, false},   // multi-gateway, static
      {core::ProtocolKind::kMlr, 3, true},    // + mobility (full MLR)
      {core::ProtocolKind::kSecMlr, 3, true},
  };
  constexpr std::array<std::uint64_t, 3> kSeeds = {1, 2, 3};

  for (const auto deployment :
       {core::DeploymentKind::kUniform, core::DeploymentKind::kClustered}) {
    std::vector<core::ScenarioConfig> configs;
    for (const Case& c : cases) {
      for (std::uint64_t seed : kSeeds) {
        core::ScenarioConfig cfg;
        cfg.protocol = c.protocol;
        cfg.deployment = deployment;
        cfg.sensorCount = 100;
        cfg.gatewayCount = c.gateways;
        cfg.feasiblePlaceCount = 6;
        cfg.gatewaysMove = c.move;
        cfg.radioRange =
            deployment == core::DeploymentKind::kClustered ? 45.0 : 30.0;
        cfg.rounds = 400;
        cfg.stopAtFirstDeath = true;
        cfg.packetsPerSensorPerRound = 2;
        cfg.energy.initialEnergyJ = 0.1;  // scaled battery → finite runs
        cfg.seed = seed;
        configs.push_back(cfg);
      }
    }

    const auto results = core::runScenariosParallel(configs, args.threads);

    TextTable table({"protocol", "lifetime (rounds)", "PDR", "mean hops",
                     "energy/sensor mJ", "D2 at death (uJ^2)"});
    CsvWriter csv({"deployment", "protocol", "lifetime_rounds", "pdr",
                   "mean_hops", "energy_per_sensor_mj", "d2_uj2"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      std::vector<core::RunResult> slice(
          results.begin() + static_cast<long>(i * kSeeds.size()),
          results.begin() + static_cast<long>((i + 1) * kSeeds.size()));
      const double lifetime =
          core::meanOver(slice, [](const core::RunResult& r) {
            return static_cast<double>(
                r.firstDeathObserved ? r.firstDeathRound : r.roundsCompleted);
          });
      const double pdr = core::meanOver(
          slice, [](const core::RunResult& r) { return r.deliveryRatio; });
      const double hops = core::meanOver(
          slice, [](const core::RunResult& r) { return r.meanHops; });
      const double energy =
          core::meanOver(slice, [](const core::RunResult& r) {
            return r.sensorEnergy.meanJ * 1e3;
          });
      const double d2 = core::meanOver(slice, [](const core::RunResult& r) {
        return r.sensorEnergy.varianceD2 * 1e6;
      });
      std::string label = core::toString(cases[i].protocol);
      if (cases[i].protocol == core::ProtocolKind::kMlr)
        label += cases[i].move ? " (mobile gw)" : " (static gw)";
      table.addRow({label, TextTable::num(lifetime, 0),
                    TextTable::num(pdr, 3), TextTable::num(hops, 2),
                    TextTable::num(energy, 2), TextTable::num(d2, 1)});
      csv.addRow({core::toString(deployment), label,
                  TextTable::num(lifetime, 1), TextTable::num(pdr, 4),
                  TextTable::num(hops, 3), TextTable::num(energy, 3),
                  TextTable::num(d2, 2)});
    }
    core::printSection(std::cout,
                       "lifetime — " + core::toString(deployment) +
                           " deployment (100 sensors, 3 seeds averaged)",
                       table);
    bench::maybeWriteCsv(args, csv);
  }

  std::cout << "expected shape: flooding dies first (implosion), single-sink "
               "next (hot relays at the sink), SPR/MLR multi-gateway last; "
               "mobility adds further rounds, especially when clustered. "
               "SecMLR pays its secure-discovery floods out of the same "
               "batteries — the price of the §6 threat model.\n\n";

  // --- area scaling: LEACH vs MLR -------------------------------------------
  // §2.2.2: LEACH "is not applicable to networks deployed in large regions"
  // — its single-hop member→head and head→sink transmissions pay the d²/d⁴
  // amplifier. MLR's multi-hop forwarding keeps per-hop distances constant.
  {
    constexpr std::array<double, 4> kSides = {200, 400, 600, 800};
    std::vector<core::ScenarioConfig> configs;
    for (double side : kSides) {
      for (auto protocol :
           {core::ProtocolKind::kLeach, core::ProtocolKind::kMlr}) {
        core::ScenarioConfig cfg;
        cfg.protocol = protocol;
        cfg.sensorCount = 100;
        cfg.gatewayCount = protocol == core::ProtocolKind::kLeach ? 1 : 3;
        cfg.feasiblePlaceCount = 6;
        cfg.width = side;
        cfg.height = side;
        // Keep density constant: scale radio range with the same node
        // count over a larger area.
        cfg.radioRange = 30.0 * side / 200.0;
        cfg.rounds = 400;
        cfg.stopAtFirstDeath = true;
        cfg.packetsPerSensorPerRound = 2;
        cfg.energy.initialEnergyJ = 0.1;
        cfg.seed = 2;
        configs.push_back(cfg);
      }
    }
    const auto results = core::runScenariosParallel(configs, args.threads);
    TextTable table({"area (m)", "leach lifetime", "mlr lifetime",
                     "leach PDR", "mlr PDR"});
    for (std::size_t i = 0; i < kSides.size(); ++i) {
      const auto& leach = results[i * 2];
      const auto& mlr = results[i * 2 + 1];
      auto life = [](const core::RunResult& r) {
        return r.firstDeathObserved ? r.firstDeathRound : r.roundsCompleted;
      };
      table.addRow({TextTable::num(kSides[i], 0) + "x" +
                        TextTable::num(kSides[i], 0),
                    TextTable::num(life(leach)), TextTable::num(life(mlr)),
                    TextTable::num(leach.deliveryRatio, 3),
                    TextTable::num(mlr.deliveryRatio, 3)});
    }
    core::printSection(
        std::cout,
        "area scaling — LEACH's long-haul radio vs MLR's multi-hop (§2.2.2)",
        table);
    std::cout << "expected shape: LEACH wins on a small field (cheap "
                 "aggregation) but collapses as the d^4 long-haul cost "
                 "grows; MLR's lifetime degrades gently.\n";
  }
  return 0;
}
