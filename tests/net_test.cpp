#include <gtest/gtest.h>

#include "net/deployment.hpp"
#include "net/mobility.hpp"
#include "net/sensor_network.hpp"
#include "util/require.hpp"

namespace wmsn::net {
namespace {

// --- geometry / energy --------------------------------------------------------

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distanceSq({1, 1}, {1, 1}), 0.0);
}

TEST(Energy, CrossoverDistance) {
  EnergyParams p;
  const double d0 = p.crossoverDistance();
  EXPECT_NEAR(d0, std::sqrt(10e-12 / 0.0013e-12), 1e-6);
}

TEST(Energy, TxCostUsesFreeSpaceBelowCrossover) {
  EnergyParams p;
  const double d = p.crossoverDistance() / 2.0;
  const double expected =
      p.eElecJPerBit * 100 + p.eFsJPerBitM2 * d * d * 100;
  EXPECT_NEAR(p.txCost(100, d), expected, 1e-18);
}

TEST(Energy, TxCostUsesMultipathAboveCrossover) {
  EnergyParams p;
  const double d = p.crossoverDistance() * 2.0;
  const double expected =
      p.eElecJPerBit * 100 + p.eMpJPerBitM4 * d * d * d * d * 100;
  EXPECT_NEAR(p.txCost(100, d), expected, 1e-15);
}

TEST(Energy, RxCostIsElectronicsOnly) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.rxCost(1000), p.eElecJPerBit * 1000);
}

TEST(Battery, DrainsAndDies) {
  Battery b(1.0);
  EXPECT_TRUE(b.drawTx(0.4));
  EXPECT_TRUE(b.drawRx(0.4));
  EXPECT_FALSE(b.depleted());
  EXPECT_FALSE(b.drawCpu(0.3));  // this charge kills it
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remainingJ(), 0.0);
  EXPECT_DOUBLE_EQ(b.txJ(), 0.4);
  EXPECT_DOUBLE_EQ(b.rxJ(), 0.4);
  EXPECT_DOUBLE_EQ(b.cpuJ(), 0.3);
}

TEST(Battery, DeadBatteryAbsorbsNothing) {
  Battery b(0.1);
  b.drawTx(0.2);
  const double consumed = b.consumedJ();
  EXPECT_TRUE(b.drawTx(0.5));  // no-op on a dead node
  EXPECT_DOUBLE_EQ(b.consumedJ(), consumed);
}

TEST(Battery, InfiniteTracksConsumption) {
  Battery b = Battery::infinite();
  EXPECT_TRUE(b.drawTx(100.0));
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.txJ(), 100.0);
}

// --- radio -------------------------------------------------------------------

TEST(UnitDiskRadio, SharpCutoff) {
  UnitDiskRadio radio(10.0);
  EXPECT_TRUE(radio.linked({0, 0}, {10, 0}));
  EXPECT_FALSE(radio.linked({0, 0}, {10.01, 0}));
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {5, 0}), 1.0);
}

TEST(LogDistanceRadio, FringeDecays) {
  LogDistanceRadio radio(10.0, 20.0);
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {9, 0}), 1.0);
  const double mid = radio.deliveryProbability({0, 0}, {15, 0});
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {20, 0}), 0.0);
  EXPECT_TRUE(radio.linked({0, 0}, {19, 0}));
  EXPECT_FALSE(radio.linked({0, 0}, {21, 0}));
}

// --- SensorNetwork + Medium -----------------------------------------------------

struct NetFixture {
  sim::Simulator simulator;
  SensorNetwork network;

  explicit NetFixture(SensorNetworkParams params = {})
      : network(simulator, std::make_unique<UnitDiskRadio>(30.0), params) {}
};

SensorNetworkParams idealParams() {
  SensorNetworkParams p;
  p.mac = MacKind::kIdeal;
  p.medium.collisions = false;
  return p;
}

TEST(SensorNetwork, AddAndQueryNodes) {
  NetFixture f;
  const NodeId s0 = f.network.addSensor({0, 0});
  const NodeId s1 = f.network.addSensor({20, 0});
  const NodeId g0 = f.network.addGateway({40, 0});
  EXPECT_EQ(f.network.size(), 3u);
  EXPECT_FALSE(f.network.node(s0).isGateway());
  EXPECT_TRUE(f.network.node(g0).isGateway());
  EXPECT_EQ(f.network.neighborsOf(s0), (std::vector<NodeId>{s1}));
  EXPECT_EQ(f.network.neighborsOf(s1), (std::vector<NodeId>{s0, g0}));
  EXPECT_TRUE(f.network.allSensorsCovered());
}

TEST(SensorNetwork, BroadcastReachesNeighborsOnly) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId c = f.network.addSensor({100, 0});  // out of range
  int bGot = 0, cGot = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++bGot; });
  f.network.node(c).setReceiveHandler([&](const Packet&, NodeId) { ++cGot; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(bGot, 1);
  EXPECT_EQ(cGot, 0);
}

TEST(SensorNetwork, UnicastAddressingFiltersOthers) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  const NodeId c = f.network.addSensor({0, 10});  // in range, not addressed
  int bGot = 0, cGot = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++bGot; });
  f.network.node(c).setReceiveHandler([&](const Packet&, NodeId) { ++cGot; });

  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = b;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(bGot, 1);
  EXPECT_EQ(cGot, 0);
  // ...but c still paid RX energy: its radio had to decode the header.
  EXPECT_GT(f.network.node(c).battery().rxJ(), 0.0);
}

TEST(SensorNetwork, PromiscuousModeSeesForeignUnicast) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  const NodeId spy = f.network.addSensor({0, 10});
  int spyGot = 0;
  f.network.node(spy).setReceiveHandler(
      [&](const Packet&, NodeId) { ++spyGot; });
  f.network.medium().setPromiscuous(spy, true);

  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = b;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(spyGot, 1);
}

TEST(SensorNetwork, TxChargesSenderRxChargesListeners) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  const auto& ep = f.network.energyParams();
  EXPECT_NEAR(f.network.node(a).battery().txJ(),
              ep.txCost(Packet::kHeaderBytes * 8, 30.0), 1e-12);
  EXPECT_NEAR(f.network.node(b).battery().rxJ(),
              ep.rxCost(Packet::kHeaderBytes * 8), 1e-12);
}

TEST(SensorNetwork, NodeDiesWhenBatteryDrains) {
  SensorNetworkParams params = idealParams();
  params.energy.initialEnergyJ = 2e-5;  // ~3 transmissions' worth
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  for (int i = 0; i < 10; ++i) {
    Packet copy = pkt;
    copy.uid = 0;
    f.network.sendFrom(a, copy);
    f.simulator.run();
  }
  // The sender burnt through its battery and stopped transmitting; the
  // listener only paid RX for the frames that actually went out.
  EXPECT_FALSE(f.network.node(a).alive());
  EXPECT_TRUE(f.network.node(b).alive());
  EXPECT_TRUE(f.network.firstSensorDeathTime().has_value());
  EXPECT_EQ(f.network.aliveSensorCount(), 1u);
}

TEST(SensorNetwork, DeadNodeNeitherSendsNorReceives) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++got; });
  f.network.node(b).kill(f.simulator.now());

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(got, 0);

  f.network.node(a).kill(f.simulator.now());
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(f.network.medium().framesByKind().count(PacketKind::kHello), 1u);
}

TEST(Medium, CollisionCorruptsOverlap) {
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;  // both transmit in the same instant
  params.medium.collisions = true;
  params.medium.unicastArq = false;
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId mid = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(mid).setReceiveHandler(
      [&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  Packet pkt2 = pkt;
  pkt2.uid = 0;
  f.network.sendFrom(b, pkt2);  // same tick → simultaneous start → jam
  f.simulator.run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(f.network.medium().framesCorrupted(), 1u);
}

TEST(Medium, CaptureEffectKeepsLockedFrame) {
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;
  params.medium.collisions = true;
  params.medium.unicastArq = false;
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId mid = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(mid).setReceiveHandler(
      [&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  // Second transmission starts 100 us later, mid-frame: the receiver stays
  // locked on the first frame and decodes it.
  f.simulator.schedule(sim::Time::microseconds(100), [&] {
    Packet late;
    late.kind = PacketKind::kHello;
    late.hopDst = kBroadcastId;
    f.network.sendFrom(b, late);
  });
  f.simulator.run();
  EXPECT_EQ(got, 1);
}

TEST(Medium, ArqRetransmitsThroughTransientLoss) {
  // Lossy fringe link: without ARQ most frames die; with ARQ nearly all
  // arrive.
  auto runWith = [](bool arq) {
    sim::Simulator simulator;
    SensorNetworkParams params;
    params.mac = MacKind::kIdeal;
    params.medium.unicastArq = arq;
    params.seed = 7;
    SensorNetwork network(simulator,
                          std::make_unique<LogDistanceRadio>(10.0, 30.0),
                          params);
    const NodeId a = network.addSensor({0, 0});
    const NodeId b = network.addSensor({15, 0});  // fringe: p ≈ 0.56 per try
    int got = 0;
    network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++got; });
    for (int i = 0; i < 50; ++i) {
      simulator.schedule(sim::Time::milliseconds(10 * (i + 1)), [&network, a, b] {
        Packet pkt;
        pkt.kind = PacketKind::kData;
        pkt.hopDst = b;
        network.sendFrom(a, pkt);
      });
    }
    simulator.run();
    return got;
  };
  const int withoutArq = runWith(false);
  const int withArq = runWith(true);
  EXPECT_GT(withArq, withoutArq);
  EXPECT_GE(withArq, 40);  // 4 tries at ~56% each ≈ 96%
}

TEST(Medium, ReceptionPrunedBeforeItsEndOfAirKeepsItsOutcome) {
  // Frame A ends at R exactly when B and C key up. B's transmit was
  // scheduled before A's end-of-air events, so at that instant it fires
  // first and prunes A's expired reception from R's in-flight list; C then
  // jams B. A's end-of-air event still fires afterwards and must see A's
  // own (clean) reception, not whatever took its place.
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;
  params.medium.collisions = true;
  params.medium.unicastArq = false;
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId r = f.network.addSensor({10, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId c = f.network.addSensor({10, 10});
  std::vector<std::uint64_t> got;
  f.network.node(r).setReceiveHandler(
      [&](const Packet& p, NodeId) { got.push_back(p.uid); });

  auto hello = [](std::uint64_t uid) {
    Packet pkt;
    pkt.kind = PacketKind::kHello;
    pkt.hopDst = kBroadcastId;
    pkt.uid = uid;
    return pkt;
  };
  const Packet frameA = hello(101);
  const sim::Time endA = f.network.medium().airTime(frameA);
  f.simulator.scheduleAt(endA, [&] {
    f.network.sendFrom(b, hello(102));
    f.network.sendFrom(c, hello(103));  // same instant: jams B at R
  });
  f.network.sendFrom(a, frameA);
  f.simulator.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{101}));
  EXPECT_GE(f.network.medium().framesCorrupted(), 2u);
}

TEST(Medium, ArqRetransmissionKeepsFrameIntact) {
  // Fringe link: most unicasts need ARQ retries, each of which re-sends
  // the same frame. Every copy that finally decodes must carry the
  // original link-layer source, uid and payload bytes.
  sim::Simulator simulator;
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;
  params.medium.unicastArq = true;
  params.seed = 7;
  SensorNetwork network(simulator,
                        std::make_unique<LogDistanceRadio>(10.0, 30.0), params);
  const NodeId a = network.addSensor({0, 0});
  const NodeId b = network.addSensor({15, 0});
  auto payloadFor = [](std::uint64_t uid) {
    Bytes payload(24);
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<std::uint8_t>(uid * 31 + i);
    return payload;
  };
  int got = 0;
  network.node(b).setReceiveHandler([&](const Packet& p, NodeId from) {
    ++got;
    EXPECT_EQ(from, a);
    EXPECT_EQ(p.hopSrc, a);
    EXPECT_EQ(p.hopDst, b);
    EXPECT_GE(p.uid, 1000u);
    EXPECT_LT(p.uid, 1030u);
    EXPECT_EQ(p.payload, payloadFor(p.uid));
  });
  for (std::uint64_t i = 0; i < 30; ++i) {
    simulator.schedule(sim::Time::milliseconds(10 * (i + 1)),
                       [&network, &payloadFor, a, b, i] {
                         Packet pkt;
                         pkt.kind = PacketKind::kData;
                         pkt.hopDst = b;
                         pkt.uid = 1000 + i;
                         pkt.payload = payloadFor(pkt.uid);
                         network.sendFrom(a, pkt);
                       });
  }
  simulator.run();
  EXPECT_GT(network.medium().arqRetransmissions(), 0u);
  EXPECT_GE(got, 25);
}

TEST(Medium, ChannelBusyDuringTransmission) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  f.network.addSensor({10, 0});
  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = kBroadcastId;
  pkt.payload.resize(100);
  f.network.sendFrom(a, pkt);
  EXPECT_TRUE(f.network.medium().channelBusy(a));
  f.simulator.run();
  EXPECT_FALSE(f.network.medium().channelBusy(a));
}

TEST(Medium, LongRangeBypassesRadioRange) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId g = f.network.addGateway({500, 0});  // far outside 30 m
  int got = 0;
  f.network.node(g).setReceiveHandler([&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kData;
  f.network.sendLongRangeFrom(a, g, pkt);
  f.simulator.run();
  EXPECT_EQ(got, 1);
  // Multipath amplifier at 500 m dominates the budget.
  const auto& ep = f.network.energyParams();
  EXPECT_NEAR(f.network.node(a).battery().txJ(),
              ep.txCost(Packet::kHeaderBytes * 8, 500.0), 1e-9);
}

TEST(SensorNetwork, GatewayRepositioning) {
  NetFixture f;
  const NodeId g = f.network.addGateway({0, 0});
  f.network.setGatewayPosition(g, {50, 50});
  EXPECT_EQ(f.network.node(g).position(), (Point{50, 50}));
  const NodeId s = f.network.addSensor({0, 0});
  EXPECT_THROW(f.network.setGatewayPosition(s, {1, 1}), PreconditionError);
}

// --- deployment ----------------------------------------------------------------

TEST(Deployment, UniformIsConnectedAndInBounds) {
  Rng rng(5);
  DeploymentParams p;
  p.sensorCount = 80;
  const Deployment d = uniformDeployment(p, rng);
  EXPECT_EQ(d.sensors.size(), 80u);
  EXPECT_EQ(d.gateways.size(), 3u);
  for (const Point& pt : d.sensors) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, p.width);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, p.height);
  }
  EXPECT_TRUE(isConnected(d, p.radioRange));
}

TEST(Deployment, GridAndClusteredConnected) {
  Rng rng(6);
  DeploymentParams p;
  p.sensorCount = 64;
  EXPECT_TRUE(isConnected(gridDeployment(p, rng), p.radioRange));
  // Clusters leave inter-cluster gaps; a wider radio is realistic there.
  p.radioRange = 45.0;
  EXPECT_TRUE(isConnected(clusteredDeployment(p, 4, rng), p.radioRange));
}

TEST(Deployment, DisconnectedDetected) {
  Deployment d;
  d.sensors = {{0, 0}, {100, 100}};
  d.gateways = {{5, 5}};
  EXPECT_FALSE(isConnected(d, 10.0));
  EXPECT_FALSE(sensorsConnected(d.sensors, 10.0));
  EXPECT_TRUE(sensorsConnected(d.sensors, 200.0));
}

TEST(Deployment, PlacesAttachedCheck) {
  const std::vector<Point> sensors = {{0, 0}, {10, 0}};
  EXPECT_TRUE(placesAttached({{5, 0}}, sensors, 6.0));
  EXPECT_FALSE(placesAttached({{50, 50}}, sensors, 6.0));
}

TEST(Deployment, ImpossibleLayoutThrows) {
  Rng rng(7);
  DeploymentParams p;
  p.sensorCount = 5;
  p.width = 10000.0;
  p.height = 10000.0;
  p.radioRange = 10.0;
  p.maxAttempts = 3;
  EXPECT_THROW(uniformDeployment(p, rng), PreconditionError);
}

// --- mobility -----------------------------------------------------------------

TEST(Mobility, StaticScheduleNeverMoves) {
  StaticSchedule schedule({0, 1, 2}, 5);
  for (std::uint32_t r = 0; r < 10; ++r) {
    EXPECT_EQ(schedule.placeOf(0, r), 0u);
    EXPECT_EQ(schedule.placeOf(2, r), 2u);
    EXPECT_TRUE(schedule.movedGateways(r).empty());
  }
}

TEST(Mobility, ScriptedScheduleFollowsScript) {
  // Table 1's scenario: A,B,C → A,C,D → C,D,E  (places 0..4 = A..E).
  ScriptedSchedule schedule({{0, 1, 2}, {0, 3, 2}, {4, 3, 2}}, 5);
  EXPECT_EQ(schedule.placeOf(1, 0), 1u);
  EXPECT_EQ(schedule.placeOf(1, 1), 3u);  // B → D
  EXPECT_EQ(schedule.movedGateways(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(schedule.movedGateways(2), (std::vector<std::size_t>{0}));
  // Past the script's end the last round holds.
  EXPECT_EQ(schedule.placeOf(0, 9), 4u);
  EXPECT_TRUE(schedule.movedGateways(3).empty());
}

TEST(Mobility, RotatingRandomMovesOnePerRound) {
  RotatingRandomSchedule schedule(3, 6, 42);
  for (std::uint32_t r = 1; r <= 20; ++r) {
    const auto moved = schedule.movedGateways(r);
    EXPECT_LE(moved.size(), 1u);
    // No two gateways share a place.
    std::set<std::size_t> places;
    for (std::size_t g = 0; g < 3; ++g) places.insert(schedule.placeOf(g, r));
    EXPECT_EQ(places.size(), 3u);
  }
}

TEST(Mobility, RotatingRandomEventuallyVisitsAllPlaces) {
  RotatingRandomSchedule schedule(2, 4, 11);
  std::set<std::size_t> visited;
  for (std::uint32_t r = 0; r < 60; ++r)
    for (std::size_t g = 0; g < 2; ++g) visited.insert(schedule.placeOf(g, r));
  EXPECT_EQ(visited.size(), 4u);  // MLR table convergence precondition
}

TEST(Mobility, RandomAccessAfterAdvance) {
  RotatingRandomSchedule schedule(2, 5, 3);
  const auto late = schedule.placeOf(0, 10);
  EXPECT_EQ(schedule.placeOf(0, 10), late);  // history is stable
  (void)schedule.placeOf(1, 2);              // going back works
}

}  // namespace
}  // namespace wmsn::net
