#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "util/require.hpp"

namespace wmsn::attacks {
namespace {

/// Shared scenario shape for attack tests: moderately sized network, fixed
/// seed, a few rounds — enough for the attack to bite, small enough to stay
/// fast.
core::ScenarioConfig baseConfig(core::ProtocolKind protocol) {
  core::ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = 160;
  cfg.height = 160;
  cfg.rounds = 4;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 7;
  return cfg;
}

core::RunResult runAttack(core::ProtocolKind protocol, AttackKind kind,
                          std::size_t attackers, double dropProbability = 1.0) {
  core::ScenarioConfig cfg = baseConfig(protocol);
  cfg.attack.kind = kind;
  cfg.attack.dropProbability = dropProbability;
  cfg.attackerCount = attackers;
  return core::runScenario(cfg);
}

TEST(Attacks, BaselinesDeliverWell) {
  const auto mlr = core::runScenario(baseConfig(core::ProtocolKind::kMlr));
  const auto sec = core::runScenario(baseConfig(core::ProtocolKind::kSecMlr));
  EXPECT_GT(mlr.deliveryRatio, 0.95);
  EXPECT_GT(sec.deliveryRatio, 0.90);
}

TEST(Attacks, SelectiveForwardingDegradesBoth) {
  const auto mlr =
      runAttack(core::ProtocolKind::kMlr, AttackKind::kSelectiveForward, 6);
  EXPECT_LT(mlr.deliveryRatio, 0.95);
  EXPECT_GT(mlr.attackerStats.framesDropped, 0u);
}

TEST(Attacks, SinkholeCollapsesMlrButNotSecMlr) {
  const auto mlr =
      runAttack(core::ProtocolKind::kMlr, AttackKind::kSinkhole, 3);
  const auto sec =
      runAttack(core::ProtocolKind::kSecMlr, AttackKind::kSinkhole, 3);
  // The sinkhole forges hop-count-0 lures into MLR's cost field and
  // swallows what it attracts.
  EXPECT_LT(mlr.deliveryRatio, 0.80);
  // SecMLR's data plane uses gateway-authenticated paths; the lure still
  // skews hop counts but attracted traffic needs a *physically real* path
  // through the attacker, so delivery holds up far better.
  EXPECT_GT(sec.deliveryRatio, mlr.deliveryRatio + 0.10);
}

TEST(Attacks, SpoofedMoveRedirectsMlrOnly) {
  const auto mlr =
      runAttack(core::ProtocolKind::kMlr, AttackKind::kSpoofMove, 2);
  const auto sec =
      runAttack(core::ProtocolKind::kSecMlr, AttackKind::kSpoofMove, 2);
  EXPECT_LT(mlr.deliveryRatio, 0.85);
  // TESLA neutralises the forgery: the spoofed interval's key is never
  // disclosed by the real gateway, so the buffered fake expires unverified
  // and the routing state stays clean — delivery is unaffected.
  EXPECT_GT(sec.deliveryRatio, 0.90);
  EXPECT_GT(mlr.attackerStats.framesForged, 0u);
}

TEST(Attacks, HelloFloodPoisonsMlrOnly) {
  const auto mlr =
      runAttack(core::ProtocolKind::kMlr, AttackKind::kHelloFlood, 1);
  const auto sec =
      runAttack(core::ProtocolKind::kSecMlr, AttackKind::kHelloFlood, 1);
  EXPECT_LT(mlr.deliveryRatio, 0.75);  // asymmetric links eat the traffic
  EXPECT_GT(sec.deliveryRatio, 0.90);
  EXPECT_GT(mlr.attackerStats.framesForged, 0u);
}

TEST(Attacks, SybilFakeGatewaysFoolMlrOnly) {
  const auto mlr = runAttack(core::ProtocolKind::kMlr, AttackKind::kSybil, 2);
  const auto sec =
      runAttack(core::ProtocolKind::kSecMlr, AttackKind::kSybil, 2);
  EXPECT_LT(mlr.deliveryRatio, 0.90);
  EXPECT_GT(sec.deliveryRatio, 0.90);  // unknown ids have no commitments
  EXPECT_GT(sec.rejectedTesla, 0u);
}

TEST(Attacks, ReplayInflatesMlrDuplicatesSecMlrRejects) {
  const auto mlr = runAttack(core::ProtocolKind::kMlr, AttackKind::kReplay, 2);
  const auto sec =
      runAttack(core::ProtocolKind::kSecMlr, AttackKind::kReplay, 2);
  EXPECT_GT(mlr.attackerStats.framesReplayed, 0u);
  // MLR gateways re-accept replayed frames (visible as duplicate
  // deliveries); SecMLR's counter window rejects them.
  EXPECT_GT(mlr.duplicateDeliveries, 0u);
  EXPECT_GT(sec.rejectedReplays, 0u);
  EXPECT_EQ(sec.duplicateDeliveries, 0u);
}

TEST(Attacks, WormholeTunnelsAndDrops) {
  const auto mlr =
      runAttack(core::ProtocolKind::kMlr, AttackKind::kWormhole, 2);
  EXPECT_GT(mlr.attackerStats.framesTunnelled, 0u);
  // The wormhole shortens perceived distances and the endpoints swallow
  // attracted data — delivery suffers.
  EXPECT_LT(mlr.deliveryRatio, 0.95);
}

TEST(Attacks, AckSpoofBlocksReliableModeHealing) {
  // Reliable MLR + a dead relay: without the attacker, senders detect the
  // dead link (no ACKs) and reroute; the ACK spoofer keeps the dead route
  // alive.
  auto configure = [](bool withAttacker) {
    core::ScenarioConfig cfg = baseConfig(core::ProtocolKind::kMlr);
    cfg.mlr.reliableForwarding = true;
    cfg.rounds = 5;
    if (withAttacker) {
      cfg.attack.kind = AttackKind::kAckSpoof;
      cfg.attackerCount = 4;
    }
    return cfg;
  };

  // Kill a batch of relays after round 1 by failing one gateway AND some
  // sensors — simplest reproducible stressor: fail gateway 0 at round 2.
  core::ScenarioConfig honest = configure(false);
  honest.failures.push_back({2, 0});
  core::ScenarioConfig attacked = configure(true);
  attacked.failures.push_back({2, 0});

  const auto honestRun = core::runScenario(honest);
  const auto attackedRun = core::runScenario(attacked);
  EXPECT_GT(attackedRun.attackerStats.framesForged, 0u);
  // Spoofed ACKs suppress route invalidation → delivery is no better (and
  // typically worse) than the honest run.
  EXPECT_LE(attackedRun.deliveryRatio, honestRun.deliveryRatio + 0.02);
}

TEST(Attacks, InstallerRejectsGatewayCompromise) {
  core::ScenarioConfig cfg = baseConfig(core::ProtocolKind::kMlr);
  auto scenario = core::buildScenario(cfg);
  AttackPlan plan;
  plan.kind = AttackKind::kSelectiveForward;
  plan.attackers = {scenario->network->gatewayIds().front()};
  EXPECT_THROW(installAttack(*scenario->stack, *scenario->network, plan,
                             VictimProtocol::kMlr, {}),
               PreconditionError);
}

TEST(Attacks, WormholeNeedsTwoEndpoints) {
  core::ScenarioConfig cfg = baseConfig(core::ProtocolKind::kMlr);
  cfg.attack.kind = AttackKind::kWormhole;
  cfg.attackerCount = 3;
  EXPECT_THROW(core::runScenario(cfg), PreconditionError);
}

TEST(Attacks, ToStringCoversAllKinds) {
  EXPECT_STREQ(toString(AttackKind::kSinkhole), "sinkhole");
  EXPECT_STREQ(toString(AttackKind::kHelloFlood), "hello-flood");
  EXPECT_STREQ(toString(AttackKind::kAckSpoof), "ack-spoofing");
}

}  // namespace
}  // namespace wmsn::attacks
