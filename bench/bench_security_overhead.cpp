// SECOVH — the cost of SecMLR's security (§6.2, §8): the paper claims the
// protocol "work[s] in [an] energy-efficient way" because "it performs main
// computing tasks on resource-rich gateways". We measure:
//   1. where the crypto CPU cost lands (sensors vs gateways vs forwarders),
//   2. the network-wide overhead of SecMLR vs plain MLR,
//   3. how the fixed discovery cost amortises as the data rate grows.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("SECOVH", "the price of SecMLR's security",
                "heavyweight computation belongs on gateways; sensors do "
                "lightweight symmetric crypto only (§6.1, §6.2.4)");

  // --- 1+2: MLR vs SecMLR at the default workload -----------------------------
  auto makeConfig = [](core::ProtocolKind protocol,
                       std::uint32_t packetsPerRound) {
    core::ScenarioConfig cfg;
    cfg.protocol = protocol;
    cfg.sensorCount = 100;
    cfg.gatewayCount = 3;
    cfg.feasiblePlaceCount = 6;
    cfg.rounds = 8;
    cfg.packetsPerSensorPerRound = packetsPerRound;
    cfg.seed = 12;
    return cfg;
  };

  std::vector<core::ScenarioConfig> configs = {
      makeConfig(core::ProtocolKind::kMlr, 2),
      makeConfig(core::ProtocolKind::kSecMlr, 2),
  };
  for (std::uint32_t rate : {1u, 4u, 8u, 16u})
    configs.push_back(makeConfig(core::ProtocolKind::kSecMlr, rate));
  const auto results = core::runScenariosParallel(configs, args.threads);
  const auto& mlr = results[0];
  const auto& sec = results[1];

  TextTable side({"metric", "mlr", "secmlr", "overhead"});
  auto ratio = [](double a, double b) {
    return b > 0 ? TextTable::num(a / b, 2) + "x" : std::string("-");
  };
  side.addRow({"PDR", TextTable::num(mlr.deliveryRatio, 3),
               TextTable::num(sec.deliveryRatio, 3), "-"});
  side.addRow({"control frames", TextTable::num(mlr.controlFrames),
               TextTable::num(sec.controlFrames),
               ratio(static_cast<double>(sec.controlFrames),
                     static_cast<double>(mlr.controlFrames))});
  side.addRow({"sensor energy mJ (total)",
               TextTable::num(mlr.sensorEnergy.totalJ * 1e3, 1),
               TextTable::num(sec.sensorEnergy.totalJ * 1e3, 1),
               ratio(sec.sensorEnergy.totalJ, mlr.sensorEnergy.totalJ)});
  side.addRow({"sensor CPU (crypto) mJ",
               TextTable::num(mlr.sensorEnergy.cpuJ * 1e3, 4),
               TextTable::num(sec.sensorEnergy.cpuJ * 1e3, 4), "-"});
  side.addRow({"gateway CPU (crypto) mJ",
               TextTable::num(mlr.gatewayEnergy.cpuJ * 1e3, 4),
               TextTable::num(sec.gatewayEnergy.cpuJ * 1e3, 4), "-"});
  side.addRow({"mean latency ms", TextTable::num(mlr.meanLatencyMs, 1),
               TextTable::num(sec.meanLatencyMs, 1),
               ratio(sec.meanLatencyMs, mlr.meanLatencyMs)});
  side.addRow({"mean hops", TextTable::num(mlr.meanHops, 2),
               TextTable::num(sec.meanHops, 2), "-"});
  core::printSection(std::cout,
                     "MLR vs SecMLR (100 sensors, 8 rounds, T=2)", side);

  const double gwShare =
      sec.gatewayEnergy.cpuJ /
      std::max(1e-12, sec.gatewayEnergy.cpuJ + sec.sensorEnergy.cpuJ);
  std::cout << "crypto CPU landing on gateways: "
            << TextTable::num(gwShare * 100.0, 1)
            << "% — the §6.2.4 offloading claim, measured.\n\n";

  // --- 3: amortisation with data rate ------------------------------------------
  TextTable amort({"packets/sensor/round", "PDR", "ctrl frames",
                   "energy per delivered reading uJ", "ctrl share of bytes"});
  CsvWriter csv({"rate", "pdr", "ctrl_frames", "energy_per_reading_uj",
                 "ctrl_byte_share"});
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = results[2 + i];
    const double perReading =
        r.delivered ? r.sensorEnergy.totalJ / static_cast<double>(r.delivered)
                    : 0.0;
    const double ctrlShare =
        static_cast<double>(r.controlBytes) /
        std::max<double>(1.0, static_cast<double>(r.controlBytes +
                                                  r.dataBytes));
    const std::uint32_t rate = (i == 0) ? 1u : (i == 1) ? 4u : (i == 2) ? 8u : 16u;
    amort.addRow({TextTable::num(rate), TextTable::num(r.deliveryRatio, 3),
                  TextTable::num(r.controlFrames),
                  TextTable::num(perReading * 1e6, 1),
                  TextTable::num(ctrlShare, 3)});
    csv.addRow({TextTable::num(rate), TextTable::num(r.deliveryRatio, 4),
                TextTable::num(r.controlFrames),
                TextTable::num(perReading * 1e6, 2),
                TextTable::num(ctrlShare, 4)});
  }
  core::printSection(
      std::cout,
      "SecMLR discovery amortisation: fixed per-round floods, growing data",
      amort);
  std::cout << "expected shape: the per-delivered-reading energy falls "
               "steeply with the data rate — discovery is a fixed cost, so "
               "SecMLR approaches MLR's per-packet economics as sessions are "
               "reused (the paper's energy-efficiency claim holds for the "
               "data plane).\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
