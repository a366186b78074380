// PLACE — §4.1's gateway deployment model: "how to select locations … to
// maximize the lifetime of the sensor network. The basic principle is
// minimizing the total energy consumption … while balancing the energy
// consumption of individual sensor nodes." Also the gateway-NUMBER model:
// the planner's cost curve exposes K_max.
//
// Compares the greedy hop-cost planner against naive (first-m feasible
// places) placement, on uniform and clustered fields.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("PLACE", "planned vs naive gateway placement",
                "choose gateway locations to minimise total hop cost and "
                "balance per-node energy (§4.1 deployment model)");

  // --- planner cost curve → K_max -------------------------------------------
  {
    Rng rng(6);
    net::DeploymentParams dp;
    dp.sensorCount = 150;
    dp.width = 260;
    dp.height = 260;
    const auto d = net::uniformDeployment(dp, rng);
    const auto places = net::feasiblePlaces(dp, 10, rng);

    TextTable curve({"m (gateways)", "total hop cost", "marginal gain %"});
    double prev = 0.0;
    for (std::size_t m = 1; m <= 8; ++m) {
      const auto sel =
          core::planGatewayPlaces(d.sensors, places, m, dp.radioRange);
      const double cost =
          core::totalHopCost(d.sensors, places, sel, dp.radioRange);
      curve.addRow({TextTable::num(m), TextTable::num(cost, 0),
                    m == 1 ? "-"
                           : TextTable::num(100.0 * (prev - cost) / prev, 1)});
      prev = cost;
    }
    core::printSection(std::cout,
                       "greedy planner cost curve (150 sensors, |P|=10)",
                       curve);
    const std::size_t kmax =
        core::estimateGatewayCount(d.sensors, places, dp.radioRange);
    std::cout << "estimated K_max (knee of the curve, §4.1 / ref [34]): "
              << kmax << "\n\n";
  }

  // --- planned vs naive, simulated ------------------------------------------
  std::vector<core::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (const auto deployment :
       {core::DeploymentKind::kUniform, core::DeploymentKind::kClustered}) {
    for (bool planned : {false, true}) {
      core::ScenarioConfig cfg;
      cfg.protocol = core::ProtocolKind::kMlr;
      cfg.deployment = deployment;
      cfg.sensorCount = 150;
      cfg.gatewayCount = 3;
      cfg.feasiblePlaceCount = 8;
      cfg.gatewaysMove = false;  // isolate placement from mobility
      cfg.planGatewayPlacement = planned;
      cfg.radioRange =
          deployment == core::DeploymentKind::kClustered ? 45.0 : 30.0;
      cfg.width = 260;
      cfg.height = 260;
      cfg.rounds = 6;
      cfg.packetsPerSensorPerRound = 2;
      cfg.seed = 14;
      configs.push_back(cfg);
      labels.push_back(std::string(core::toString(deployment)) +
                       (planned ? " / planned" : " / naive"));
    }
  }
  const auto results = core::runScenariosParallel(configs, args.threads);

  TextTable table({"placement", "mean hops", "energy/sensor mJ", "D2 (uJ²)",
                   "Jain", "PDR"});
  CsvWriter csv({"placement", "mean_hops", "energy_mj", "d2_uj2", "jain",
                 "pdr"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.addRow({labels[i], TextTable::num(r.meanHops, 2),
                  TextTable::num(r.sensorEnergy.meanJ * 1e3, 3),
                  TextTable::num(r.sensorEnergy.varianceD2 * 1e6, 1),
                  TextTable::num(r.sensorEnergy.jainFairness, 3),
                  TextTable::num(r.deliveryRatio, 3)});
    csv.addRow({labels[i], TextTable::num(r.meanHops, 3),
                TextTable::num(r.sensorEnergy.meanJ * 1e3, 4),
                TextTable::num(r.sensorEnergy.varianceD2 * 1e6, 2),
                TextTable::num(r.sensorEnergy.jainFairness, 4),
                TextTable::num(r.deliveryRatio, 4)});
  }
  core::printSection(std::cout, "planned vs naive placement (static, m=3)",
                     table);
  std::cout << "expected shape: planning matters most on the clustered "
               "field, where the naive grid-ordinal placement can park a "
               "gateway far from any cluster; the planner's hop savings "
               "translate directly into energy.\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
