// Tests for the §2.2.1 flat-routing baselines: SPIN's ADV/REQ/DATA
// negotiation and Directed Diffusion's interest/gradient/reinforcement
// machinery.

#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "routing/diffusion.hpp"
#include "routing/spin.hpp"

namespace wmsn::routing {
namespace {

struct FlatNet {
  sim::Simulator simulator;
  net::SensorNetwork network;
  NetworkKnowledge knowledge;
  std::unique_ptr<ProtocolStack> stack;

  FlatNet(std::size_t sensors, const ProtocolStack::Factory& factory)
      : network(simulator, std::make_unique<net::UnitDiskRadio>(25.0),
                params()) {
    for (std::size_t i = 0; i < sensors; ++i)
      network.addSensor({20.0 * static_cast<double>(i), 0.0});
    knowledge.feasiblePlaces = {
        {20.0 * static_cast<double>(sensors), 0.0}};
    knowledge.gatewayIds.push_back(
        network.addGateway(knowledge.feasiblePlaces[0]));
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

// --- SPIN ---------------------------------------------------------------------

ProtocolStack::Factory spinFactory() {
  return [](net::SensorNetwork& n, net::NodeId id,
            const NetworkKnowledge& k) {
    return std::make_unique<SpinRouting>(n, id, k);
  };
}

TEST(Spin, NegotiatedDeliveryAcrossHops) {
  FlatNet net(5, spinFactory());
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(5.0);
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  const auto kinds = net.network.medium().framesByKind();
  // The three-way handshake happened at every hop.
  EXPECT_GE(kinds.at(net::PacketKind::kAdv), 5u);
  EXPECT_GE(kinds.at(net::PacketKind::kReq), 5u);
  EXPECT_GE(kinds.at(net::PacketKind::kData), 5u);
}

TEST(Spin, NoDuplicateDataTransmissions) {
  // SPIN's whole point: a node that already holds the data never requests
  // it again, so data frames stay bounded by the node count — unlike
  // flooding, where every node retransmits the payload blindly.
  FlatNet net(6, spinFactory());
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(8.0);
  const auto kinds = net.network.medium().framesByKind();
  // Each node transmits the payload at most once per requester; on a line,
  // each hop serves its two neighbours at most.
  EXPECT_LE(kinds.at(net::PacketKind::kData), 12u);
  EXPECT_EQ(net.network.stats().delivered(), 1u);
}

TEST(Spin, AdvSmallerThanData) {
  FlatNet net(3, spinFactory());
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(3.0);
  const auto& medium = net.network.medium();
  // Control bytes per frame (ADV/REQ ≈ 9 B payload) < data bytes per frame
  // (≈ 35 B payload): the negotiation is cheaper than blind payload
  // flooding per §2.2.1.
  const double ctrlPerFrame =
      static_cast<double>(medium.controlBytes()) /
      static_cast<double>(medium.controlFrames());
  const double dataPerFrame = static_cast<double>(medium.dataBytes()) /
                              static_cast<double>(medium.dataFrames());
  EXPECT_LT(ctrlPerFrame, dataPerFrame);
}

TEST(Spin, EndToEndOnGeneratedNetwork) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kSpin;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 3;
  cfg.width = 150;
  cfg.height = 150;
  cfg.gatewaysMove = false;
  cfg.rounds = 3;
  cfg.packetsPerSensorPerRound = 1;
  cfg.seed = 8;
  const auto r = core::runScenario(cfg);
  // SPIN's ADV broadcasts get no ARQ; a lost advertisement means a branch
  // never pulls the data — mid-80s delivery under CSMA is the protocol's
  // honest ceiling here.
  EXPECT_GT(r.deliveryRatio, 0.8);
}

// --- Directed Diffusion ---------------------------------------------------------

ProtocolStack::Factory diffusionFactory() {
  return [](net::SensorNetwork& n, net::NodeId id,
            const NetworkKnowledge& k) {
    return std::make_unique<DiffusionRouting>(n, id, k);
  };
}

TEST(Diffusion, InterestFloodBuildsGradients) {
  FlatNet net(5, diffusionFactory());
  net.run(1.0);  // the sink's start() interest flood
  // A middle node hears the interest from both line neighbours.
  auto& node2 = dynamic_cast<DiffusionRouting&>(net.stack->at(2));
  EXPECT_EQ(node2.gradientCount(), 2u);
  EXPECT_FALSE(node2.reinforced());
}

TEST(Diffusion, FirstPacketExploratoryThenReinforcedUnicast) {
  FlatNet net(5, diffusionFactory());
  net.run(1.0);
  net.stack->at(0).originate(Bytes(24, 1));  // exploratory flood
  net.run(3.0);
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  auto& src = dynamic_cast<DiffusionRouting&>(net.stack->at(0));
  EXPECT_TRUE(src.reinforced());  // the sink's reinforcement walked back

  const auto dataBefore =
      net.network.medium().framesByKind().at(net::PacketKind::kData);
  net.stack->at(0).originate(Bytes(24, 2));  // now unicast down the gradient
  net.run(3.0);
  const auto dataAfter =
      net.network.medium().framesByKind().at(net::PacketKind::kData);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
  // Reinforced path: exactly one frame per hop (5 hops), no flood.
  EXPECT_EQ(dataAfter - dataBefore, 5u);
}

TEST(Diffusion, NoInterestNoTransmission) {
  // A node that never heard an interest has no gradient — data is not owed
  // to anyone (data-centric semantics).
  sim::Simulator simulator;
  net::SensorNetworkParams params = FlatNet::params();
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(25.0), params);
  network.addSensor({0, 0});
  NetworkKnowledge knowledge;
  knowledge.feasiblePlaces = {{500, 500}};  // unreachable sink
  knowledge.gatewayIds.push_back(network.addGateway({500, 500}));
  ProtocolStack stack(network, knowledge, diffusionFactory());
  stack.startAll();
  stack.at(0).originate(Bytes(24, 1));
  simulator.runUntil(sim::Time::seconds(2.0));
  EXPECT_EQ(network.medium().framesByKind().count(net::PacketKind::kData),
            0u);
}

TEST(Diffusion, RoundRefreshRebuildsSoftState) {
  FlatNet net(4, diffusionFactory());
  net.run(1.0);
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(3.0);
  auto& src = dynamic_cast<DiffusionRouting&>(net.stack->at(0));
  ASSERT_TRUE(src.reinforced());
  net.stack->beginRound(1);  // fresh interest epoch
  EXPECT_FALSE(src.reinforced());
  net.run(1.0);  // new interest flood re-arms gradients
  net.stack->at(0).originate(Bytes(24, 2));
  net.run(3.0);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
}

TEST(Diffusion, EndToEndOnGeneratedNetwork) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kDiffusion;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 150;
  cfg.height = 150;
  cfg.gatewaysMove = false;
  cfg.rounds = 3;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 9;
  const auto r = core::runScenario(cfg);
  EXPECT_GT(r.deliveryRatio, 0.9);
}

}  // namespace
}  // namespace wmsn::routing
