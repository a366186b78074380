// Tests for the §4 "key issues" features: downstream commands (§5.1),
// load-balance advisories (§4.3), GAF sleep scheduling + delegation (§4.4),
// and the gateway-placement planner (§4.1).

#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "routing/mlr.hpp"
#include "routing/secmlr.hpp"
#include "util/require.hpp"

namespace wmsn {
namespace {

// --- downstream commands -----------------------------------------------------

struct CommandNet {
  sim::Simulator simulator;
  net::SensorNetwork network;
  routing::NetworkKnowledge knowledge;
  std::unique_ptr<routing::ProtocolStack> stack;

  explicit CommandNet(bool secure)
      : network(simulator, std::make_unique<net::UnitDiskRadio>(25.0),
                params()) {
    for (int i = 0; i < 5; ++i)
      network.addSensor({20.0 * i, 0.0});
    knowledge.feasiblePlaces = {{-20.0, 0.0}, {120.0, 0.0}};
    knowledge.gatewayIds.push_back(network.addGateway({-20.0, 0.0}));
    routing::SecMlrConfig sec;
    sec.tesla.intervalDuration = sim::Time::seconds(0.5);
    stack = std::make_unique<routing::ProtocolStack>(
        network, knowledge,
        [secure, keyring = std::make_shared<routing::SecMlrKeyring>(sec),
         ledger = std::make_shared<routing::SecMlrFloodLedger>(
             network.size())](net::SensorNetwork& n, net::NodeId id,
                              const routing::NetworkKnowledge& k)
            -> std::unique_ptr<routing::RoutingProtocol> {
          if (secure)
            return std::make_unique<routing::SecMlrRouting>(n, id, k, keyring,
                                                            ledger);
          return std::make_unique<routing::MlrRouting>(n, id, k);
        });
    stack->startAll();
    stack->beginRound(0);
  }

  static net::SensorNetworkParams params() {
    net::SensorNetworkParams p;
    p.mac = net::MacKind::kIdeal;
    p.medium.collisions = false;
    return p;
  }

  routing::MlrRouting& mlrAt(net::NodeId id) {
    return dynamic_cast<routing::MlrRouting&>(stack->at(id));
  }

  void run(double seconds) {
    simulator.runUntil(simulator.now() + sim::Time::seconds(seconds));
  }
};

TEST(Commands, FloodReachesDistantTarget) {
  CommandNet net(false);
  Bytes body{0x01, 0x02, 0x03};
  std::optional<routing::CommandMsg> received;
  net.mlrAt(4).setCommandHandler(
      [&](const routing::CommandMsg& msg) { received = msg; });
  net.mlrAt(net.knowledge.gatewayIds[0]).sendCommand(4, body);
  net.run(2.0);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->body, body);
  EXPECT_EQ(received->target, 4);
  EXPECT_EQ(net.mlrAt(4).commandsReceived(), 1u);
  // Non-targets relayed but did not consume.
  EXPECT_EQ(net.mlrAt(2).commandsReceived(), 0u);
}

TEST(Commands, DuplicateFloodCopiesConsumedOnce) {
  CommandNet net(false);
  net.mlrAt(net.knowledge.gatewayIds[0]).sendCommand(2, Bytes{9});
  net.run(2.0);
  EXPECT_EQ(net.mlrAt(2).commandsReceived(), 1u);
}

TEST(Commands, SecureCommandDecryptsAtTarget) {
  CommandNet net(true);
  Bytes body{0xde, 0xad, 0xbe, 0xef};
  std::optional<routing::CommandMsg> received;
  net.mlrAt(3).setCommandHandler(
      [&](const routing::CommandMsg& msg) { received = msg; });
  net.mlrAt(net.knowledge.gatewayIds[0]).sendCommand(3, body);
  net.run(2.0);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->body, body);  // decrypted back to the plaintext
}

TEST(Commands, SecureCommandForgeryRejected) {
  CommandNet net(true);
  std::optional<routing::CommandMsg> received;
  net.mlrAt(3).setCommandHandler(
      [&](const routing::CommandMsg& msg) { received = msg; });

  // Sensor 0 forges a command claiming to come from the gateway.
  routing::CommandMsg forged;
  forged.gateway = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  forged.target = 3;
  forged.commandSeq = 42;
  ByteWriter sealed;
  sealed.u64(1);                    // counter
  sealed.bytes(Bytes(8, 0x66));     // bogus ciphertext
  sealed.raw(Bytes(crypto::kPacketMacSize, 0x00));  // bogus MAC
  forged.body = sealed.take();

  net::Packet pkt;
  pkt.kind = net::PacketKind::kCommand;
  pkt.hopDst = net::kBroadcastId;
  pkt.payload = forged.encode();
  net.network.sendFrom(0, pkt);
  net.run(2.0);
  EXPECT_FALSE(received.has_value());
  EXPECT_EQ(dynamic_cast<routing::SecMlrRouting&>(net.stack->at(3))
                .rejectedMacs(),
            1u);
}

TEST(Commands, SecureCommandReplayRejected) {
  CommandNet net(true);
  int hits = 0;
  net.mlrAt(2).setCommandHandler([&](const routing::CommandMsg&) { ++hits; });
  auto& gw = net.mlrAt(net.knowledge.gatewayIds[0]);
  gw.sendCommand(2, Bytes{1});
  net.run(2.0);
  ASSERT_EQ(hits, 1);

  // Capture and replay: re-flood the same sealed body with a NEW command
  // sequence (so the flood dedupe does not mask the counter check).
  // Easiest faithful replay: send the same counter again from a bystander.
  // We reconstruct it via the keystore, as a node-capture adversary would.
  crypto::KeyStore ks = crypto::KeyStore::fromSeed(0xc0ffee);
  const auto gwId = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  const crypto::Key key = ks.pairwiseKey(2, gwId);
  Bytes enc = crypto::SpeckCtr(key).encrypt(1, Bytes{1});  // counter 1 reused
  const auto mac = crypto::packetMac(key, 1, enc);
  routing::CommandMsg replay;
  replay.gateway = gwId;
  replay.target = 2;
  replay.commandSeq = 77;
  ByteWriter sealed;
  sealed.u64(1);
  sealed.bytes(enc);
  sealed.raw(std::span<const std::uint8_t>(mac.data(), mac.size()));
  replay.body = sealed.take();

  net::Packet pkt;
  pkt.kind = net::PacketKind::kCommand;
  pkt.hopDst = net::kBroadcastId;
  pkt.payload = replay.encode();
  net.network.sendFrom(1, pkt);
  net.run(2.0);
  EXPECT_EQ(hits, 1);  // not consumed twice
  EXPECT_GE(dynamic_cast<routing::SecMlrRouting&>(net.stack->at(2))
                .rejectedReplays(),
            1u);
}

// --- load advisories (§4.3) -----------------------------------------------------

TEST(LoadBalance, AdvisoryShiftsMarginalTraffic) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 80;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.gatewaysMove = false;
  cfg.rounds = 6;
  cfg.packetsPerSensorPerRound = 1;
  cfg.hotspot.enabled = true;
  cfg.hotspot.placeOrdinal = 0;
  cfg.hotspot.radius = 70;
  cfg.hotspot.extraPacketsPerSensor = 4;
  cfg.seed = 3;

  auto hottestShare = [](const core::RunResult& r) {
    double total = 0, hottest = 0;
    for (const auto& [gw, count] : r.perGatewayDeliveries) {
      total += static_cast<double>(count);
      hottest = std::max(hottest, static_cast<double>(count));
    }
    return hottest / std::max(1.0, total);
  };

  const auto plain = core::runScenario(cfg);
  cfg.mlr.loadAdvisoryThreshold = 50;
  const auto balanced = core::runScenario(cfg);
  EXPECT_LT(hottestShare(balanced), hottestShare(plain));
  EXPECT_GT(balanced.deliveryRatio, 0.95);
}

TEST(LoadBalance, NoAdvisoryBelowThreshold) {
  // Uniform traffic well under the threshold: no advisories are flooded.
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.rounds = 4;
  cfg.packetsPerSensorPerRound = 1;
  cfg.mlr.loadAdvisoryThreshold = 100000;  // unreachable
  cfg.seed = 4;
  auto scenario = core::buildScenario(cfg);
  core::Experiment experiment(*scenario);
  experiment.run();
  EXPECT_EQ(scenario->network->stats().framesByKind().count(
                net::PacketKind::kLoadAdvisory),
            0u);
}

// --- sleep scheduling (§4.4) ------------------------------------------------------

TEST(Sleep, SchedulerElectsOneLeaderPerCellAndDelegates) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
  // Two clusters of 3 nodes each, far apart → two cells (at least).
  for (double dx : {0.0, 2.0, 4.0})
    network.addSensor({dx, 0.0});
  for (double dx : {0.0, 2.0, 4.0})
    network.addSensor({100.0 + dx, 0.0});
  network.addGateway({50, 0});

  const auto assignment = core::applySleepSchedule(network, 30.0);
  EXPECT_EQ(assignment.sleeping, 4u);  // 6 sensors, 2 leaders
  EXPECT_EQ(assignment.delegations.size(), 4u);
  for (const auto& [sleeper, leader] : assignment.delegations) {
    EXPECT_TRUE(network.node(sleeper).sleeping());
    EXPECT_FALSE(network.node(leader).sleeping());
    // The delegate link must physically exist.
    EXPECT_LE(net::distance(network.node(sleeper).position(),
                            network.node(leader).position()),
              30.0);
  }
  EXPECT_NEAR(core::sleepingFraction(network), 4.0 / 6.0, 1e-9);
}

TEST(Sleep, LeadersRotateByResidualEnergy) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.energy.initialEnergyJ = 1.0;
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
  const auto a = network.addSensor({0, 0});
  const auto b = network.addSensor({1, 0});  // same cell
  network.addGateway({10, 0});

  core::applySleepSchedule(network, 30.0);
  const bool aLedFirst = !network.node(a).sleeping();
  // Drain the current leader; the next epoch must elect the other node.
  const auto leader = aLedFirst ? a : b;
  network.node(leader).battery().drawTx(0.5);
  core::applySleepSchedule(network, 30.0);
  EXPECT_TRUE(network.node(leader).sleeping());
  EXPECT_FALSE(network.node(aLedFirst ? b : a).sleeping());
}

TEST(Sleep, SleepingRadioNeitherHearsNorPaysRx) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
  const auto a = network.addSensor({0, 0});
  const auto b = network.addSensor({10, 0});
  int got = 0;
  network.node(b).setReceiveHandler(
      [&](const net::Packet&, net::NodeId) { ++got; });
  network.node(b).setSleeping(true);

  net::Packet pkt;
  pkt.kind = net::PacketKind::kHello;
  pkt.hopDst = net::kBroadcastId;
  network.sendFrom(a, pkt);
  simulator.run();
  EXPECT_EQ(got, 0);
  EXPECT_DOUBLE_EQ(network.node(b).battery().rxJ(), 0.0);
}

TEST(Sleep, EndToEndDeliveryWithDutyCycling) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 120;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.radioRange = 45;
  cfg.rounds = 4;
  cfg.packetsPerSensorPerRound = 2;
  cfg.sleep.enabled = true;
  cfg.sleep.epochRounds = 2;
  cfg.seed = 5;
  const auto r = core::runScenario(cfg);
  EXPECT_GT(r.deliveryRatio, 0.95);
  // The duty cycle measurably reduced mean consumption vs always-on.
  cfg.sleep.enabled = false;
  const auto alwaysOn = core::runScenario(cfg);
  EXPECT_LT(r.sensorEnergy.meanJ, alwaysOn.sensorEnergy.meanJ);
}

TEST(Sleep, RequiresMlr) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kSecMlr;
  cfg.sleep.enabled = true;
  EXPECT_THROW(cfg.validate(), PreconditionError);
}

// --- placement planner (§4.1) -----------------------------------------------------

TEST(Placement, HopFieldMatchesLineDistances) {
  std::vector<net::Point> sensors;
  for (int i = 0; i < 5; ++i) sensors.push_back({20.0 * i, 0.0});
  const auto field = core::hopField(sensors, {-20.0, 0.0}, 25.0);
  for (std::size_t i = 0; i < sensors.size(); ++i)
    EXPECT_EQ(field[i], i + 1);
}

TEST(Placement, UnreachableSensorsFlagged) {
  const std::vector<net::Point> sensors = {{0, 0}, {500, 500}};
  const auto field = core::hopField(sensors, {10, 0}, 25.0);
  EXPECT_EQ(field[0], 1u);
  EXPECT_EQ(field[1], core::kUnreachableHops);
}

TEST(Placement, GreedyPicksObviouslyBestPlaces) {
  // Two sensor clusters; candidate places: one near each cluster, one in
  // the empty middle. m=2 must pick the two cluster-adjacent places.
  std::vector<net::Point> sensors;
  for (double dx : {0.0, 15.0, 30.0}) {
    sensors.push_back({dx, 0.0});
    sensors.push_back({500.0 + dx, 0.0});
  }
  const std::vector<net::Point> places = {{-20, 0}, {250, 0}, {520, 0}};
  const auto chosen = core::planGatewayPlaces(sensors, places, 2, 25.0);
  EXPECT_EQ(chosen.size(), 2u);
  EXPECT_TRUE((chosen[0] == 0 && chosen[1] == 2) ||
              (chosen[0] == 2 && chosen[1] == 0));
}

TEST(Placement, CostDecreasesMonotonicallyWithM) {
  Rng rng(2);
  net::DeploymentParams dp;
  dp.sensorCount = 60;
  const auto d = net::uniformDeployment(dp, rng);
  const auto places = net::feasiblePlaces(dp, 6, rng);
  double prev = std::numeric_limits<double>::max();
  for (std::size_t m = 1; m <= 6; ++m) {
    const auto sel = core::planGatewayPlaces(d.sensors, places, m,
                                             dp.radioRange);
    EXPECT_EQ(sel.size(), m);
    const double cost =
        core::totalHopCost(d.sensors, places, sel, dp.radioRange);
    EXPECT_LE(cost, prev);
    prev = cost;
  }
}

TEST(Placement, PlannedBeatsNaiveInSimulation) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 100;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 8;
  cfg.gatewaysMove = false;
  cfg.width = 220;
  cfg.height = 220;
  cfg.rounds = 3;
  cfg.seed = 9;
  const auto naive = core::runScenario(cfg);
  cfg.planGatewayPlacement = true;
  const auto planned = core::runScenario(cfg);
  EXPECT_LE(planned.meanHops, naive.meanHops + 0.01);
}

TEST(Placement, EstimateGatewayCountWithinRange) {
  Rng rng(4);
  net::DeploymentParams dp;
  dp.sensorCount = 80;
  const auto d = net::uniformDeployment(dp, rng);
  const auto places = net::feasiblePlaces(dp, 8, rng);
  const std::size_t kmax =
      core::estimateGatewayCount(d.sensors, places, dp.radioRange);
  EXPECT_GE(kmax, 1u);
  EXPECT_LE(kmax, 8u);
}

}  // namespace
}  // namespace wmsn
