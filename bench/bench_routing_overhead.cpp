// OVERHEAD — quantifies §5.3's central efficiency claim: MLR's incremental
// tables ("accumulate routing tables round by round … not all sensor nodes
// need to set up routing tables") versus (a) a conventional table-driven
// protocol that rebuilds everything every round and (b) pure on-demand SPR
// re-discovery. Also ablates SPR's answer-from-cache optimisation (§5.2
// remark 2: "directly return path information rather than further flood").

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv);
  bench::banner("OVERHEAD",
                "control overhead: incremental vs rebuilt vs on-demand",
                "incremental tables 'significantly reduce delay and save "
                "energy for routing discovery' (§5.3)");

  struct Case {
    const char* label;
    core::ProtocolKind protocol;
    bool rebuild;
    bool answerFromCache;
  };
  const std::vector<Case> cases = {
      {"mlr incremental (paper)", core::ProtocolKind::kMlr, false, true},
      {"mlr rebuild-every-round (ablation)", core::ProtocolKind::kMlr, true,
       true},
      {"spr on-demand + cache answers (paper)", core::ProtocolKind::kSpr,
       false, true},
      {"spr on-demand, no cache (ablation)", core::ProtocolKind::kSpr, false,
       false},
  };
  constexpr std::uint32_t kRounds = 20;

  std::vector<core::ScenarioConfig> configs;
  for (const Case& c : cases) {
    core::ScenarioConfig cfg;
    cfg.protocol = c.protocol;
    cfg.sensorCount = 100;
    cfg.gatewayCount = 3;
    cfg.feasiblePlaceCount = 6;
    cfg.rounds = kRounds;
    cfg.packetsPerSensorPerRound = 2;
    cfg.mlr.rebuildEveryRound = c.rebuild;
    cfg.spr.answerFromCache = c.answerFromCache;
    cfg.seed = 11;
    configs.push_back(cfg);
  }

  // Per-round cumulative control-frame series (the figure a paper would
  // plot) — run serially with observers.
  TextTable series({"round", cases[0].label, cases[1].label, cases[2].label,
                    cases[3].label});
  CsvWriter seriesCsv({"round", "mlr_incremental", "mlr_rebuild",
                       "spr_cache", "spr_nocache"});
  std::vector<std::vector<std::uint64_t>> perRound(
      cases.size(), std::vector<std::uint64_t>(kRounds, 0));
  std::vector<core::RunResult> finals;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    auto scenario = core::buildScenario(configs[i]);
    core::Experiment experiment(*scenario);
    experiment.setRoundObserver([&, i](std::uint32_t round) {
      perRound[i][round] = scenario->network->medium().controlFrames();
    });
    finals.push_back(experiment.run());
  }

  for (std::uint32_t r = 0; r < kRounds; r += (r < 5 ? 1 : 5)) {
    std::vector<std::string> row{TextTable::num(r + 1)};
    std::vector<std::string> csvRow{TextTable::num(r + 1)};
    for (std::size_t i = 0; i < cases.size(); ++i) {
      row.push_back(TextTable::num(perRound[i][r]));
      csvRow.push_back(TextTable::num(perRound[i][r]));
    }
    series.addRow(row);
    seriesCsv.addRow(csvRow);
  }
  core::printSection(std::cout,
                     "cumulative control frames after each round "
                     "(100 sensors, 3 mobile gateways)",
                     series);

  TextTable totals({"variant", "ctrl frames", "ctrl bytes", "data frames",
                    "energy/sensor mJ", "PDR", "mean latency ms"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& r = finals[i];
    totals.addRow({cases[i].label, TextTable::num(r.controlFrames),
                   TextTable::num(r.controlBytes),
                   TextTable::num(r.dataFrames),
                   TextTable::num(r.sensorEnergy.meanJ * 1e3, 3),
                   TextTable::num(r.deliveryRatio, 3),
                   TextTable::num(r.meanLatencyMs, 1)});
  }
  core::printSection(std::cout, "20-round totals", totals);
  std::cout << "expected shape: the rebuild ablation pays ~|moved-all| times "
               "more control traffic; SPR pays per-source floods each round; "
               "incremental MLR's curve flattens once all |P| places are "
               "known.\n";
  bench::maybeWriteCsv(args, seriesCsv);
  return 0;
}
