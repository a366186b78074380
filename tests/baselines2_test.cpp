// Tests for the second wave of §2.2 related-work baselines: PEGASIS (chain
// gathering) and TEEN (threshold-reactive reporting).

#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "routing/pegasis.hpp"
#include "routing/teen.hpp"

namespace wmsn::routing {
namespace {

struct BaselineNet {
  sim::Simulator simulator;
  net::SensorNetwork network;
  NetworkKnowledge knowledge;
  std::unique_ptr<ProtocolStack> stack;

  BaselineNet(std::size_t sensors, const ProtocolStack::Factory& factory)
      : network(simulator, std::make_unique<net::UnitDiskRadio>(25.0),
                params()) {
    for (std::size_t i = 0; i < sensors; ++i)
      network.addSensor({20.0 * static_cast<double>(i), 0.0});
    knowledge.feasiblePlaces = {{-40.0, 0.0}};
    knowledge.gatewayIds.push_back(network.addGateway({-40.0, 0.0}));
    stack = std::make_unique<ProtocolStack>(network, knowledge, factory);
    stack->startAll();
  }

  static net::SensorNetworkParams params() {
    net::SensorNetworkParams p;
    p.mac = net::MacKind::kIdeal;
    p.medium.collisions = false;
    return p;
  }

  void run(double seconds) {
    simulator.runUntil(simulator.now() + sim::Time::seconds(seconds));
  }
};

ProtocolStack::Factory pegasisFactory() {
  return [](net::SensorNetwork& n, net::NodeId id,
            const NetworkKnowledge& k) {
    return std::make_unique<PegasisRouting>(n, id, k);
  };
}

// --- PEGASIS ----------------------------------------------------------------

TEST(Pegasis, ChainLinksNeighbours) {
  BaselineNet net(5, pegasisFactory());
  net.stack->beginRound(0);
  // On a line the greedy chain is the line itself: farthest-from-sink end
  // is node 4 → chain 4,3,2,1,0.
  auto& node2 = dynamic_cast<PegasisRouting&>(net.stack->at(2));
  ASSERT_TRUE(node2.chainPrev().has_value());
  ASSERT_TRUE(node2.chainNext().has_value());
  EXPECT_EQ(*node2.chainPrev(), 3u);
  EXPECT_EQ(*node2.chainNext(), 1u);
}

TEST(Pegasis, LeaderRotatesWithRounds) {
  BaselineNet net(4, pegasisFactory());
  std::set<net::NodeId> leaders;
  for (std::uint32_t r = 0; r < 4; ++r) {
    net.stack->beginRound(r);
    for (net::NodeId s : net.network.sensorIds())
      if (dynamic_cast<PegasisRouting&>(net.stack->at(s)).isLeader())
        leaders.insert(s);
  }
  EXPECT_EQ(leaders.size(), 4u);  // "they take turns"
}

TEST(Pegasis, ReadingsFuseAlongChainToSink) {
  BaselineNet net(5, pegasisFactory());
  net.stack->beginRound(0);
  for (net::NodeId s : net.network.sensorIds())
    net.stack->at(s).originate(Bytes(24, 1));
  net.run(16.0);  // past the gathering sweep
  EXPECT_EQ(net.network.stats().delivered(), 5u);
  // One sweep: 4 chain links + 1 leader uplink — fusion, not per-reading
  // relaying.
  EXPECT_LE(net.network.medium().dataFrames(), 6u);
}

TEST(Pegasis, SurvivesDeadChainMember) {
  BaselineNet net(5, pegasisFactory());
  net.stack->beginRound(0);
  net.network.node(2).kill(net.simulator.now());
  net.stack->beginRound(1);  // chain rebuilds without the dead node
  for (net::NodeId s : {0u, 1u, 3u, 4u})
    net.stack->at(s).originate(Bytes(24, 1));
  net.run(16.0);
  EXPECT_EQ(net.network.stats().delivered(), 4u);
}

TEST(Pegasis, EndToEndOnGeneratedNetwork) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kPegasis;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 150;
  cfg.height = 150;
  cfg.gatewaysMove = false;
  cfg.rounds = 4;
  cfg.packetsPerSensorPerRound = 2;
  // Sweep late enough to catch the whole traffic window; only the final
  // round's stragglers are unswept.
  cfg.pegasis.sweepStart = sim::Time::seconds(18.6);
  cfg.seed = 6;
  const auto r = core::runScenario(cfg);
  EXPECT_GT(r.deliveryRatio, 0.95);
}

// --- TEEN ---------------------------------------------------------------------

ProtocolStack::Factory teenFactory(TeenParams teen) {
  return [teen](net::SensorNetwork& n, net::NodeId id,
                const NetworkKnowledge& k) {
    return std::make_unique<TeenRouting>(n, id, k, teen);
  };
}

TEST(Teen, SuppressesBelowHardThreshold) {
  TeenParams teen;
  teen.hardThreshold = 1e9;  // nothing ever qualifies
  BaselineNet net(3, teenFactory(teen));
  net.stack->beginRound(0);
  for (int i = 0; i < 20; ++i) net.stack->at(0).originate(Bytes(24, 1));
  net.run(3.0);
  auto& node = dynamic_cast<TeenRouting&>(net.stack->at(0));
  EXPECT_EQ(node.sensingEvents(), 20u);
  EXPECT_EQ(node.reportsSent(), 0u);
  EXPECT_EQ(net.network.stats().generated(), 0u);
}

TEST(Teen, ReportsWhenThresholdsCross) {
  TeenParams teen;
  teen.hardThreshold = 0.0;   // everything above hard…
  teen.softThreshold = 0.0;   // …and every change is reportable
  BaselineNet net(3, teenFactory(teen));
  net.stack->beginRound(0);
  for (int i = 0; i < 5; ++i) net.stack->at(1).originate(Bytes(24, 1));
  net.run(5.0);
  auto& node = dynamic_cast<TeenRouting&>(net.stack->at(1));
  EXPECT_EQ(node.reportsSent(), 5u);
  EXPECT_EQ(net.network.stats().delivered(), 5u);
}

TEST(Teen, SoftThresholdControlsReportRate) {
  // §2.2.2: "the user can control the trade-off between energy efficiency
  // and data accuracy" — a larger soft threshold must suppress more.
  auto reportsWith = [](double soft) {
    TeenParams teen;
    teen.hardThreshold = 0.0;
    teen.softThreshold = soft;
    BaselineNet net(2, teenFactory(teen));
    net.stack->beginRound(0);
    for (int i = 0; i < 200; ++i) net.stack->at(0).originate(Bytes(24, 1));
    net.run(10.0);
    return dynamic_cast<TeenRouting&>(net.stack->at(0)).reportsSent();
  };
  const auto fine = reportsWith(0.5);
  const auto coarse = reportsWith(10.0);
  EXPECT_GT(fine, coarse);
  EXPECT_GT(coarse, 0u);
}

TEST(Teen, ValueStaysBounded) {
  TeenParams teen;
  BaselineNet net(2, teenFactory(teen));
  net.stack->beginRound(0);
  auto& node = dynamic_cast<TeenRouting&>(net.stack->at(0));
  for (int i = 0; i < 500; ++i) {
    net.stack->at(0).originate(Bytes(24, 1));
    EXPECT_GE(node.currentValue(), teen.valueMin);
    EXPECT_LE(node.currentValue(), teen.valueMax);
  }
}

TEST(Teen, EndToEndOnGeneratedNetwork) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kTeen;
  cfg.sensorCount = 50;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 140;
  cfg.height = 140;
  cfg.gatewaysMove = false;
  cfg.rounds = 4;
  cfg.packetsPerSensorPerRound = 4;  // sensing events, mostly suppressed
  cfg.teen.hardThreshold = 30.0;
  cfg.seed = 7;
  const auto r = core::runScenario(cfg);
  // Reactive contract: whatever was reported got delivered.
  EXPECT_GT(r.deliveryRatio, 0.95);
  EXPECT_LT(r.generated, 50u * 4u * 4u);  // suppression happened
  EXPECT_GT(r.generated, 0u);
}

}  // namespace
}  // namespace wmsn::routing
