// ATTACK — the paper's security claim (§1, §6): SecMLR "can resist most of
// attacks against routing in WMSNs". Runs the full Karlof–Wagner catalogue
// (§2.3) against both plain MLR and SecMLR and reports the damage.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv, bench::kThreads);
  bench::banner("ATTACK", "attack-resistance matrix: MLR vs SecMLR",
                "spoofed/replayed routing info, selective forwarding, "
                "sinkhole, sybil, wormhole, HELLO flood, ACK spoofing "
                "(§2.3, §6)");

  struct Case {
    attacks::AttackKind kind;
    std::size_t attackers;
  };
  const std::vector<Case> cases = {
      {attacks::AttackKind::kNone, 0},
      {attacks::AttackKind::kSpoofMove, 2},
      {attacks::AttackKind::kReplay, 2},
      {attacks::AttackKind::kSelectiveForward, 6},
      {attacks::AttackKind::kSinkhole, 3},
      {attacks::AttackKind::kSybil, 2},
      {attacks::AttackKind::kHelloFlood, 1},
      {attacks::AttackKind::kWormhole, 2},
  };

  std::vector<core::ScenarioConfig> configs;
  for (const auto protocol :
       {core::ProtocolKind::kMlr, core::ProtocolKind::kSecMlr}) {
    for (const Case& c : cases) {
      core::ScenarioConfig cfg;
      cfg.protocol = protocol;
      cfg.sensorCount = 80;
      cfg.gatewayCount = 3;
      cfg.feasiblePlaceCount = 5;
      cfg.width = 180;
      cfg.height = 180;
      cfg.rounds = 6;
      cfg.packetsPerSensorPerRound = 2;
      cfg.attack.kind = c.kind;
      cfg.attackerCount = c.attackers;
      cfg.seed = 77;
      configs.push_back(cfg);
    }
  }
  const auto results = core::runScenariosParallel(configs, args.threads);

  TextTable table({"attack", "MLR PDR", "SecMLR PDR", "MLR dup-deliv",
                   "Sec rejects (mac/replay/tesla)", "attacker actions"});
  CsvWriter csv({"attack", "mlr_pdr", "secmlr_pdr", "mlr_duplicates",
                 "sec_rejected_mac", "sec_rejected_replay",
                 "sec_rejected_tesla"});
  const std::size_t n = cases.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& mlr = results[i];
    const auto& sec = results[n + i];
    const std::string rejects = TextTable::num(sec.rejectedMacs) + "/" +
                                TextTable::num(sec.rejectedReplays) + "/" +
                                TextTable::num(sec.rejectedTesla);
    const auto& atk = mlr.attackerStats;
    const std::string actions =
        "drop:" + TextTable::num(atk.framesDropped) +
        " forge:" + TextTable::num(atk.framesForged) +
        " replay:" + TextTable::num(atk.framesReplayed) +
        " tunnel:" + TextTable::num(atk.framesTunnelled);
    table.addRow({attacks::toString(cases[i].kind),
                  TextTable::num(mlr.deliveryRatio, 3),
                  TextTable::num(sec.deliveryRatio, 3),
                  TextTable::num(mlr.duplicateDeliveries), rejects, actions});
    csv.addRow({attacks::toString(cases[i].kind),
                TextTable::num(mlr.deliveryRatio, 4),
                TextTable::num(sec.deliveryRatio, 4),
                TextTable::num(mlr.duplicateDeliveries),
                TextTable::num(sec.rejectedMacs),
                TextTable::num(sec.rejectedReplays),
                TextTable::num(sec.rejectedTesla)});
  }
  core::printSection(
      std::cout,
      "80 sensors, 3 gateways, 6 rounds, attackers are captured sensors",
      table);

  std::cout
      << "expected shape:\n"
      << "  spoofed-move / sybil / hello-flood — MLR's cost field is "
         "poisoned, PDR drops hard; SecMLR's TESLA authentication rejects "
         "every forgery and PDR matches the no-attack baseline.\n"
      << "  replay — MLR gateways re-accept old frames (duplicate "
         "deliveries); SecMLR's counters reject them all.\n"
      << "  sinkhole — severe against MLR; SecMLR limits the damage because "
         "data paths must be physically real end-to-end.\n"
      << "  selective forwarding / wormhole — hurt both (the paper's §8 "
         "remedy is multi-gateway redundancy, visible as partial delivery "
         "rather than collapse); wormholes also defeat SecMLR's hop counts "
         "— a known limitation of the design (Karlof & Wagner §2.3).\n";
  bench::maybeWriteCsv(args, csv);
  return 0;
}
