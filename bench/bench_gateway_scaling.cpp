// GWSCALE — quantifies §4.1's gateway-number claim: "multiple gateways …
// significantly reduce the average number of hops of data transmission,
// saving energy consumption and accordingly lengthening network lifetime",
// with diminishing returns past K_max (the paper cites [34]'s ILP result).
//
// Sweeps m = 1..8 gateways over a fixed 200-sensor deployment and reports
// mean hops, per-sensor energy, lifetime (rounds to first death), and
// per-gateway load balance.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("GWSCALE", "hops / energy / lifetime vs gateway count",
                "more gateways → fewer hops and longer lifetime, saturating "
                "at K_max (§4.1)");

  constexpr std::array<std::size_t, 8> kGatewayCounts = {1, 2, 3, 4,
                                                         5, 6, 7, 8};
  constexpr std::array<std::uint64_t, 3> kSeeds = {1, 2, 3};

  // Short fixed-duration runs for hops/energy…
  std::vector<core::ScenarioConfig> hopConfigs;
  // …and lifetime runs with a scaled-down battery so first death happens
  // within the cap.
  std::vector<core::ScenarioConfig> lifeConfigs;
  for (std::size_t m : kGatewayCounts) {
    for (std::uint64_t seed : kSeeds) {
      core::ScenarioConfig cfg;
      cfg.protocol = core::ProtocolKind::kMlr;
      cfg.sensorCount = 200;
      cfg.gatewayCount = m;
      cfg.feasiblePlaceCount = 10;
      cfg.width = 280;
      cfg.height = 280;
      cfg.rounds = 4;
      cfg.packetsPerSensorPerRound = 2;
      cfg.seed = seed;
      hopConfigs.push_back(cfg);

      cfg.rounds = 300;
      cfg.stopAtFirstDeath = true;
      cfg.energy.initialEnergyJ = 0.1;
      lifeConfigs.push_back(cfg);
    }
  }

  const auto hopResults = core::runScenariosParallel(hopConfigs, args.threads);
  const auto lifeResults =
      core::runScenariosParallel(lifeConfigs, args.threads);

  TextTable table({"gateways (m)", "mean hops", "energy/sensor mJ",
                   "lifetime (rounds)", "gateway-load Jain", "PDR"});
  CsvWriter csv({"gateways", "mean_hops", "energy_per_sensor_mj",
                 "lifetime_rounds", "gateway_load_jain", "pdr"});

  for (std::size_t i = 0; i < kGatewayCounts.size(); ++i) {
    std::vector<core::RunResult> hops(
        hopResults.begin() + static_cast<long>(i * kSeeds.size()),
        hopResults.begin() + static_cast<long>((i + 1) * kSeeds.size()));
    std::vector<core::RunResult> life(
        lifeResults.begin() + static_cast<long>(i * kSeeds.size()),
        lifeResults.begin() + static_cast<long>((i + 1) * kSeeds.size()));

    const double meanHops = core::meanOver(
        hops, [](const core::RunResult& r) { return r.meanHops; });
    const double energy = core::meanOver(hops, [](const core::RunResult& r) {
      return r.sensorEnergy.meanJ * 1e3;
    });
    const double lifetime = core::meanOver(
        life, [](const core::RunResult& r) {
          return static_cast<double>(r.firstDeathObserved
                                         ? r.firstDeathRound
                                         : r.roundsCompleted);
        });
    const double pdr = core::meanOver(
        hops, [](const core::RunResult& r) { return r.deliveryRatio; });
    const double loadJain =
        core::meanOver(hops, [](const core::RunResult& r) {
          std::vector<double> loads;
          for (const auto& [gw, count] : r.perGatewayDeliveries)
            loads.push_back(static_cast<double>(count));
          return jainFairness(loads);
        });

    table.addRow({TextTable::num(kGatewayCounts[i]),
                  TextTable::num(meanHops, 2), TextTable::num(energy, 3),
                  TextTable::num(lifetime, 0), TextTable::num(loadJain, 3),
                  TextTable::num(pdr, 3)});
    csv.addRow({TextTable::num(kGatewayCounts[i]),
                TextTable::num(meanHops, 3), TextTable::num(energy, 4),
                TextTable::num(lifetime, 1), TextTable::num(loadJain, 4),
                TextTable::num(pdr, 4)});
  }

  core::printSection(
      std::cout, "gateway-count sweep (200 sensors, MLR, 3 seeds averaged)",
      table);
  std::cout << "expected shape: hops and energy fall steeply from m=1, "
               "lifetime rises, both flattening at larger m (K_max).\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
