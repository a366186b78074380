// Static adjacency + active-set kernel (docs/KERNEL.md).
//
// The medium's rows must hold exactly the in-range set, ascending by id,
// and follow every gateway move. The active set must make dead/failed nodes
// cost literally nothing: zero node-steps, zero RNG draws. Both properties
// are load-bearing for the byte-identity gates, so they get brute-force
// oracles here.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/radio.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "routing/protocol.hpp"
#include "sim/node_state.hpp"
#include "util/random.hpp"

namespace wmsn {
namespace {

// --- NodeStateBlock ---------------------------------------------------------

TEST(NodeStateBlock, ActiveSetTracksFailKillRecover) {
  sim::NodeStateBlock block;
  for (int i = 0; i < 5; ++i) block.add(static_cast<double>(i), 0.0);
  EXPECT_EQ(block.activeIds(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));

  block.setFailed(2, true);  // crash: reversible
  block.setDead(4);          // battery death: permanent
  EXPECT_EQ(block.activeIds(), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_FALSE(block.alive(2));
  EXPECT_FALSE(block.alive(4));

  block.setFailed(2, false);  // recovery rejoins the sweep
  EXPECT_EQ(block.activeIds(), (std::vector<std::uint32_t>{0, 1, 2, 3}));

  // Sleeping nodes stay active (they still step, §4.4) but stop listening.
  block.setSleeping(1, true);
  EXPECT_EQ(block.activeIds(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(block.alive(1));
  EXPECT_FALSE(block.listening(1));
}

// --- neighborsOf and frame delivery vs brute force --------------------------

/// Alive nodes other than `id` that the radio links with it, ascending.
std::vector<net::NodeId> bruteNeighbors(const net::SensorNetwork& network,
                                        net::NodeId id) {
  std::vector<net::NodeId> out;
  for (net::NodeId other = 0; other < network.size(); ++other) {
    if (other == id || !network.node(other).alive()) continue;
    if (network.radio().linked(network.node(id).position(),
                               network.node(other).position()))
      out.push_back(other);
  }
  return out;
}

TEST(SensorNetwork, NeighborsOfMatchesBruteForce) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  net::SensorNetwork network(simulator,
                             std::make_unique<net::UnitDiskRadio>(25.0),
                             params);
  Rng rng(7);
  for (int i = 0; i < 80; ++i)
    network.addSensor({rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0)});
  network.addGateway({60.0, 60.0});
  network.node(3).kill(sim::Time::zero());
  network.node(9).setFailed(true);

  for (net::NodeId id = 0; id < network.size(); ++id)
    EXPECT_EQ(network.neighborsOf(id), bruteNeighbors(network, id))
        << "node " << id;
}

TEST(SensorNetwork, GatewayRowsFollowSetGatewayPosition) {
  // A gateway's row of in-range sensors is recomputed when it moves; the
  // sensors' view of the gateway follows too. Checked against brute force
  // at every stop of a tour that crosses many cells and ends off the field.
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  net::SensorNetwork network(simulator,
                             std::make_unique<net::UnitDiskRadio>(20.0),
                             params);
  Rng rng(11);
  for (int i = 0; i < 120; ++i)
    network.addSensor({rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0)});
  const net::NodeId g0 = network.addGateway({0.0, 0.0});
  const net::NodeId g1 = network.addGateway({75.0, 75.0});

  const std::vector<net::Point> tour = {
      {10.0, 10.0}, {74.0, 80.0}, {149.0, 3.0}, {60.0, 60.0}, {500.0, 500.0},
      {20.0, 0.0},  {75.0, 75.0}, {-5.0, 40.0}};
  for (const net::Point& p : tour) {
    network.setGatewayPosition(g0, p);
    network.setGatewayPosition(g1, {p.y, p.x});
    for (net::NodeId id = 0; id < network.size(); ++id)
      ASSERT_EQ(network.neighborsOf(id), bruteNeighbors(network, id))
          << "node " << id << " with g0 at (" << p.x << "," << p.y << ")";
  }
}

TEST(SensorNetwork, GatewayBelowSensorIdsDeliversInAscendingIdOrder) {
  // Hand-built: gateways take ids 0 and 2, sensors 1 and 3..6, so a sender's
  // row interleaves with the gateways. A broadcast must still reach its
  // receivers in ascending id order (the RNG draw order), and the sensor
  // graph is built lazily at the first transmission.
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  params.medium.collisions = false;
  net::SensorNetwork network(simulator,
                             std::make_unique<net::UnitDiskRadio>(30.0),
                             params);
  network.addGateway({0.0, 0.0});     // 0
  network.addSensor({10.0, 0.0});     // 1
  network.addGateway({20.0, 0.0});    // 2
  network.addSensor({5.0, 5.0});      // 3
  network.addSensor({15.0, 5.0});     // 4
  network.addSensor({200.0, 200.0});  // 5: out of everyone's range
  network.addSensor({35.0, 0.0});     // 6: 25 m from 1, 15 m from 2

  std::vector<net::NodeId> order;
  network.attachFrameObserver(
      "order", [&order](const net::Packet&, net::NodeId node, bool transmit) {
        if (!transmit) order.push_back(node);
      });

  net::Packet packet;
  packet.kind = net::PacketKind::kGatewayMove;
  packet.hopDst = net::kBroadcastId;
  network.sendFrom(1, packet);
  simulator.run();
  EXPECT_EQ(order, (std::vector<net::NodeId>{0, 2, 3, 4, 6}));
  EXPECT_EQ(network.neighborsOf(1), (std::vector<net::NodeId>{0, 2, 3, 4, 6}));

  order.clear();
  network.sendFrom(2, packet);  // a gateway sender
  simulator.run();
  EXPECT_EQ(order, (std::vector<net::NodeId>{0, 1, 3, 4, 6}));
}

// --- active-set round stepping ----------------------------------------------

// Counts onRoundStart invocations and draws from the node's RNG stream on
// every step — so "zero calls" proves both zero node-steps and zero draws
// for the skipped node.
class CountingProtocol final : public routing::RoutingProtocol {
 public:
  CountingProtocol(net::SensorNetwork& network, net::NodeId self,
                   const routing::NetworkKnowledge& knowledge,
                   std::vector<int>& calls)
      : RoutingProtocol(network, self, knowledge), calls_(calls) {}

  std::string name() const override { return "counting"; }
  void onRoundStart(std::uint32_t) override {
    ++calls_[self()];
    rng().uniformInt(0, 1000);  // a skipped node must not advance its stream
  }
  void onReceive(const net::Packet&, net::NodeId) override {}
  void originate(Bytes) override {}

 private:
  std::vector<int>& calls_;
};

TEST(ProtocolStack, ActiveSetSkipsDeadAndFailedEntirely) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  net::SensorNetwork network(simulator,
                             std::make_unique<net::UnitDiskRadio>(25.0),
                             params);
  for (int i = 0; i < 6; ++i)
    network.addSensor({static_cast<double>(10 * i), 0.0});
  routing::NetworkKnowledge knowledge;
  knowledge.gatewayIds.push_back(network.addGateway({0.0, 10.0}));

  std::vector<int> calls(network.size(), 0);
  routing::ProtocolStack stack(
      network, knowledge,
      [&calls](net::SensorNetwork& n, net::NodeId id,
               const routing::NetworkKnowledge& k) {
        return std::make_unique<CountingProtocol>(n, id, k, calls);
      });

  network.node(1).setFailed(true);             // crashed
  network.node(4).kill(sim::Time::zero());     // battery-dead

  obs::PerfStats perf;
  {
    obs::PerfStats::Activation counting(&perf);
    stack.beginRound(0);
    stack.beginRound(1);
  }

  EXPECT_EQ(calls[0], 2);
  EXPECT_EQ(calls[1], 0) << "failed node was stepped";
  EXPECT_EQ(calls[4], 0) << "dead node was stepped";
  EXPECT_EQ(calls[5], 2);
  // node-steps counts only active nodes: (7 total - 2 down) × 2 rounds.
  // Each step drew exactly once from its node's stream, so zero calls on
  // nodes 1 and 4 is also zero RNG draws for them.
  EXPECT_EQ(perf.value(obs::PerfCounter::kNodeSteps), 10u);

  // Recovery rejoins the sweep on the next boundary.
  network.node(1).setFailed(false);
  stack.beginRound(2);
  EXPECT_EQ(calls[1], 1);
}

}  // namespace
}  // namespace wmsn
