// FIG2 — reproduces Fig. 2 of the paper: "Routing in sensor networks with
// one sink and three gateways". The paper's worked example: sensor nodes
// S1, S2, S3, S4 need 2, 7, 6 and 9 hops to reach a single sink, but only
// 1, 1, 1 and 2 hops when three gateways G1..G3 are deployed.
//
// Part 1 rebuilds the example's topology exactly and measures the hop
// counts with the SPR protocol. Part 2 generalises to a randomly deployed
// 100-node network, sweeping the sink/gateway count.

#include "bench_util.hpp"
#include "routing/spr.hpp"

namespace {

using namespace wmsn;

struct Fig2Layout {
  std::vector<net::Point> sensors;
  std::vector<net::Point> places;  ///< [sink, G1, G2, G3]
  net::NodeId s1, s2, s3, s4;
};

/// Four relay chains radiating from the sink position (0,0); S1..S4 sit at
/// the BFS depths of the paper's example. Radio range 25 m, 20 m spacing.
Fig2Layout makeLayout() {
  Fig2Layout layout;
  auto add = [&](double x, double y) {
    layout.sensors.push_back({x, y});
    return static_cast<net::NodeId>(layout.sensors.size() - 1);
  };

  // East arm: 1 relay, then S1 (2 hops from the sink).
  add(20, 0);
  layout.s1 = add(40, 0);
  // North arm: 6 relays, S2 at 7 hops, one more relay, S4 at 9 hops.
  for (int i = 1; i <= 6; ++i) add(0, 20.0 * i);  // (0,20)..(0,120)
  layout.s2 = add(0, 140);
  add(0, 160);  // n7
  layout.s4 = add(0, 180);
  // West arm: 5 relays, then S3 (6 hops).
  for (int i = 1; i <= 5; ++i) add(-20.0 * i, 0);
  layout.s3 = add(-120, 0);

  layout.places = {
      {0, 0},      // the single sink's position
      {60, 0},     // G1: next to S1
      {15, 155},   // G2: next to S2, two hops from S4 via n7
      {-140, 0},   // G3: next to S3
  };
  return layout;
}

struct HopResult {
  std::uint16_t s1 = 0, s2 = 0, s3 = 0, s4 = 0;
};

/// Runs SPR on the layout with the given gateway places and reads each
/// S-node's discovered route length.
HopResult measure(const Fig2Layout& layout,
                  std::vector<std::size_t> gatewayPlaces) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kSpr;
  cfg.mac = net::MacKind::kIdeal;  // the paper's example assumes a clean channel
  cfg.medium.collisions = false;
  cfg.gatewaysMove = false;
  cfg.rounds = 1;
  cfg.packetsPerSensorPerRound = 0;  // we originate manually
  cfg.radioRange = 25.0;
  cfg.spr.answerFromCache = false;   // measure pure shortest paths

  auto scenario = core::buildScenarioAt(cfg, layout.sensors, layout.places,
                                        std::move(gatewayPlaces));
  core::Experiment experiment(*scenario);

  HopResult out;
  experiment.setRoundObserver([&](std::uint32_t) {});
  // Drive one round; originate from the four S nodes mid-round.
  scenario->simulator.schedule(sim::Time::seconds(1.0), [&] {
    for (net::NodeId s : {layout.s1, layout.s2, layout.s3, layout.s4})
      scenario->stack->at(s).originate(Bytes(24, 0x01));
  });
  experiment.run();

  auto hopsOf = [&](net::NodeId id) -> std::uint16_t {
    const auto& spr =
        dynamic_cast<const routing::SprRouting&>(scenario->stack->at(id));
    return spr.currentRouteHops().value_or(0);
  };
  out.s1 = hopsOf(layout.s1);
  out.s2 = hopsOf(layout.s2);
  out.s3 = hopsOf(layout.s3);
  out.s4 = hopsOf(layout.s4);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("FIG2", "hop counts: single sink vs three gateways",
                "S1..S4 need 2/7/6/9 hops to one sink but 1/1/1/2 hops to "
                "three gateways (Fig. 2)");

  const Fig2Layout layout = makeLayout();
  const HopResult single = measure(layout, {0});
  const HopResult multi = measure(layout, {1, 2, 3});

  TextTable table({"node", "paper (1 sink)", "measured (1 sink)",
                   "paper (3 gateways)", "measured (3 gateways)"});
  table.addRow({"S1", "2", TextTable::num(single.s1), "1",
                TextTable::num(multi.s1)});
  table.addRow({"S2", "7", TextTable::num(single.s2), "1",
                TextTable::num(multi.s2)});
  table.addRow({"S3", "6", TextTable::num(single.s3), "1",
                TextTable::num(multi.s3)});
  table.addRow({"S4", "9", TextTable::num(single.s4), "2",
                TextTable::num(multi.s4)});
  core::printSection(std::cout, "Fig. 2 exact example (SPR, ideal channel)",
                     table);

  // --- Part 2: randomised generalisation -----------------------------------
  std::vector<core::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (std::size_t m : {1u, 3u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      core::ScenarioConfig cfg;
      cfg.protocol = core::ProtocolKind::kMlr;
      cfg.sensorCount = 100;
      cfg.gatewayCount = m;
      cfg.feasiblePlaceCount = 4;
      cfg.gatewaysMove = false;
      cfg.rounds = 2;
      cfg.seed = seed;
      configs.push_back(cfg);
    }
  }
  const auto results = core::runScenariosParallel(configs, args.threads);

  TextTable general({"gateways", "mean hops (3 seeds)", "p95 latency ms",
                     "PDR"});
  CsvWriter csv({"gateways", "mean_hops", "p95_latency_ms", "pdr"});
  for (std::size_t block = 0; block < 2; ++block) {
    std::vector<core::RunResult> slice(results.begin() + block * 3,
                                       results.begin() + block * 3 + 3);
    const double hops = core::meanOver(
        slice, [](const core::RunResult& r) { return r.meanHops; });
    const double latency = core::meanOver(
        slice, [](const core::RunResult& r) { return r.p95LatencyMs; });
    const double pdr = core::meanOver(
        slice, [](const core::RunResult& r) { return r.deliveryRatio; });
    const std::string m = block == 0 ? "1" : "3";
    general.addRow({m, TextTable::num(hops, 2), TextTable::num(latency, 1),
                    TextTable::num(pdr, 3)});
    csv.addRow({m, TextTable::num(hops, 3), TextTable::num(latency, 2),
                TextTable::num(pdr, 4)});
  }
  core::printSection(std::cout,
                     "generalisation: 100 random sensors, m sinks (MLR)",
                     general);
  bench::maybeWriteCsv(args, csv);
  return 0;
}
