#include <gtest/gtest.h>

#include "net/sensor_network.hpp"
#include "routing/flooding.hpp"
#include "routing/leach.hpp"
#include "routing/messages.hpp"
#include "routing/mlr.hpp"
#include "routing/single_sink.hpp"
#include "routing/spr.hpp"
#include "util/require.hpp"

namespace wmsn::routing {
namespace {

// --- wire formats -------------------------------------------------------------

TEST(Messages, RreqRoundTrip) {
  RreqMsg m;
  m.reqId = 77;
  m.targetGateway = 3;
  m.path = {1, 2, 3};
  const RreqMsg out = RreqMsg::decode(m.encode());
  EXPECT_EQ(out.reqId, 77u);
  EXPECT_EQ(out.targetGateway, 3);
  EXPECT_EQ(out.path, m.path);
}

TEST(Messages, RresAndDataRoundTrip) {
  RresMsg r;
  r.reqId = 5;
  r.gateway = 9;
  r.place = 2;
  r.path = {4, 5, 9};
  r.cursor = 1;
  const RresMsg rOut = RresMsg::decode(r.encode());
  EXPECT_EQ(rOut.path, r.path);
  EXPECT_EQ(rOut.cursor, 1);
  EXPECT_EQ(rOut.place, 2);

  DataMsg d;
  d.source = 4;
  d.gateway = 9;
  d.place = 1;
  d.dataSeq = 100;
  d.route = {4, 5, 9};
  d.cursor = 2;
  d.reading = {1, 2, 3, 4};
  const DataMsg dOut = DataMsg::decode(d.encode());
  EXPECT_EQ(dOut.reading, d.reading);
  EXPECT_EQ(dOut.route, d.route);
  EXPECT_EQ(dOut.dataSeq, 100u);
}

TEST(Messages, GatewayMoveAndBeaconRoundTrip) {
  GatewayMoveMsg g;
  g.gateway = 7;
  g.newPlace = 3;
  g.prevPlace = kNoPlace;
  g.round = 12;
  g.hopCount = 4;
  const GatewayMoveMsg gOut = GatewayMoveMsg::decode(g.encode());
  EXPECT_EQ(gOut.newPlace, 3);
  EXPECT_EQ(gOut.prevPlace, kNoPlace);
  EXPECT_EQ(gOut.hopCount, 4);

  CostBeaconMsg c;
  c.sink = 1;
  c.cost = 6;
  c.epoch = 2;
  const CostBeaconMsg cOut = CostBeaconMsg::decode(c.encode());
  EXPECT_EQ(cOut.cost, 6);
  EXPECT_EQ(cOut.epoch, 2u);
}

TEST(Messages, AggregateRoundTrip) {
  AggregateMsg a;
  a.entries.push_back({111, 5, 2});
  a.entries.push_back({222, 6, 1});
  const AggregateMsg out = AggregateMsg::decode(a.encode());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].uid, 111u);
  EXPECT_EQ(out.entries[1].origin, 6);
}

TEST(Messages, SecureMessagesRoundTrip) {
  SecRreqMsg q;
  q.source = 2;
  q.gateway = 8;
  q.reqId = 3;
  q.counter = 99;
  q.encReq = {1, 2, 3};
  q.path = {2, 4};
  q.mac.fill(0xaa);
  const SecRreqMsg qOut = SecRreqMsg::decode(q.encode());
  EXPECT_EQ(qOut.counter, 99u);
  EXPECT_EQ(qOut.path, q.path);
  EXPECT_EQ(qOut.mac, q.mac);
  EXPECT_EQ(qOut.macInput(), q.macInput());

  SecDataMsg d;
  d.source = 2;
  d.gateway = 8;
  d.immediateSender = 2;
  d.immediateReceiver = 4;
  d.counter = 7;
  d.encData = {9, 9};
  d.mac.fill(0xbb);
  const SecDataMsg dOut = SecDataMsg::decode(d.encode());
  EXPECT_EQ(dOut.immediateReceiver, 4);
  EXPECT_EQ(dOut.encData, d.encData);
}

TEST(Messages, MacInputExcludesMutableFields) {
  SecRreqMsg q;
  q.source = 2;
  q.gateway = 8;
  q.reqId = 3;
  q.counter = 99;
  q.encReq = {1, 2, 3};
  q.path = {2};
  const Bytes before = q.macInput();
  q.path.push_back(17);  // per-hop append must not break the MAC
  EXPECT_EQ(q.macInput(), before);

  SecDataMsg d;
  d.source = 1;
  d.immediateSender = 1;
  d.immediateReceiver = 2;
  const Bytes dBefore = d.macInput();
  d.immediateSender = 2;  // rewritten at every hop (§6.2.4)
  d.immediateReceiver = 3;
  EXPECT_EQ(d.macInput(), dBefore);
}

TEST(Messages, MalformedPayloadThrows) {
  EXPECT_THROW(RreqMsg::decode(Bytes{1, 2}), PreconditionError);
  EXPECT_THROW(DataMsg::decode(Bytes{}), PreconditionError);
  EXPECT_THROW(SecRreqMsg::decode(Bytes(5, 0xff)), PreconditionError);
  // A path length byte claiming more hops than present.
  Bytes bogus{0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff};
  EXPECT_THROW(RreqMsg::decode(bogus), PreconditionError);
}

TEST(Messages, PathIsSimple) {
  EXPECT_TRUE(pathIsSimple({1, 2, 3}));
  EXPECT_TRUE(pathIsSimple({}));
  EXPECT_FALSE(pathIsSimple({1, 2, 1}));
}

TEST(Messages, PathIsSimpleAtLengthsZeroOneAndThirtyTwo) {
  EXPECT_TRUE(pathIsSimple({}));
  EXPECT_TRUE(pathIsSimple({7}));
  Path path;
  for (std::uint16_t hop = 0; hop < 32; ++hop) path.push_back(hop * 3);
  EXPECT_TRUE(pathIsSimple(path));
  // A duplicate at either end, against its neighbour or the far end.
  Path p = path;
  p.front() = p[1];
  EXPECT_FALSE(pathIsSimple(p));
  p = path;
  p.back() = p[30];
  EXPECT_FALSE(pathIsSimple(p));
  p = path;
  p.back() = p.front();
  EXPECT_FALSE(pathIsSimple(p));
  EXPECT_FALSE(pathIsSimple({5, 5}));
}

// --- shared test harness ---------------------------------------------------------

/// A deterministic line topology: sensors every 20 m, gateways appended at
/// given positions. Ideal MAC, no collisions — routing logic in isolation.
struct LineNet {
  sim::Simulator simulator;
  net::SensorNetwork network;
  NetworkKnowledge knowledge;
  std::unique_ptr<ProtocolStack> stack;

  LineNet(std::size_t sensorCount, std::vector<net::Point> gatewayPositions,
          const ProtocolStack::Factory& factory,
          std::vector<net::Point> places = {})
      : network(simulator, std::make_unique<net::UnitDiskRadio>(25.0),
                idealParams()) {
    for (std::size_t i = 0; i < sensorCount; ++i)
      network.addSensor({20.0 * static_cast<double>(i), 0.0});
    knowledge.feasiblePlaces = places.empty() ? gatewayPositions : places;
    for (const auto& p : gatewayPositions)
      knowledge.gatewayIds.push_back(network.addGateway(p));
    stack = std::make_unique<ProtocolStack>(network, knowledge, factory);
    stack->startAll();
  }

  static net::SensorNetworkParams idealParams() {
    net::SensorNetworkParams p;
    p.mac = net::MacKind::kIdeal;
    p.medium.collisions = false;
    return p;
  }

  void run(double seconds = 5.0) {
    simulator.runUntil(simulator.now() + sim::Time::seconds(seconds));
  }
};

template <typename Params, typename Protocol>
ProtocolStack::Factory factoryFor(Params params) {
  return [params](net::SensorNetwork& n, net::NodeId id,
                  const NetworkKnowledge& k) {
    return std::make_unique<Protocol>(n, id, k, params);
  };
}

// --- flooding / gossip ----------------------------------------------------------

TEST(Flooding, DeliversAcrossMultipleHops) {
  // 5 sensors in a line, gateway past the last one: 0→…→4→G.
  LineNet net(5, {{100.0, 0.0}},
              factoryFor<FloodingParams, FloodingRouting>({}));
  net.stack->at(0).originate(Bytes(24, 1));
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().max(), 5.0);
}

TEST(Flooding, TtlLimitsPropagation) {
  FloodingParams params;
  params.maxHops = 3;
  LineNet net(6, {{140.0, 0.0}},
              factoryFor<FloodingParams, FloodingRouting>(params));
  net.stack->at(0).originate(Bytes(24, 1));  // gateway is 7 hops away
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 0u);
}

TEST(Flooding, EveryNodeRebroadcastsOnce) {
  LineNet net(5, {{120.0, 0.0}},
              factoryFor<FloodingParams, FloodingRouting>({}));
  net.stack->at(0).originate(Bytes(24, 1));
  net.run();
  // Source + 4 relays transmit exactly once each (implosion guard);
  // the gateway consumes without rebroadcasting.
  EXPECT_EQ(net.network.stats().dataFrames(), 5u);
}

TEST(Gossip, RandomWalkReachesGatewayEventually) {
  LineNet net(4, {{80.0, 0.0}},
              factoryFor<FloodingParams, GossipRouting>({}));
  for (int i = 0; i < 10; ++i) net.stack->at(0).originate(Bytes(24, 1));
  net.run(30.0);
  // On a line with a gateway neighbour-preference the walk terminates; most
  // packets make it, a few may exceed the TTL.
  EXPECT_GE(net.network.stats().delivered(), 5u);
}

// --- single sink -------------------------------------------------------------------

TEST(SingleSink, GradientFormsAndRoutes) {
  LineNet net(5, {{-20.0, 0.0}},
              factoryFor<SingleSinkParams, SingleSinkRouting>({}));
  net.run(1.0);  // let the start() beacon flood
  auto& node4 = dynamic_cast<SingleSinkRouting&>(net.stack->at(4));
  ASSERT_TRUE(node4.costToSink().has_value());
  EXPECT_EQ(*node4.costToSink(), 5);  // 5 hops from the far end

  net.stack->at(4).originate(Bytes(24, 1));
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 5.0);
}

TEST(SingleSink, OnlyFirstGatewayActsAsSink) {
  // Second gateway adjacent to the source is IGNORED — the whole point of
  // the single-sink baseline.
  LineNet net(5, {{-20.0, 0.0}, {100.0, 0.0}},
              factoryFor<SingleSinkParams, SingleSinkRouting>({}));
  net.run(1.0);
  net.stack->at(4).originate(Bytes(24, 1));
  net.run();
  ASSERT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 5.0);
  EXPECT_TRUE(net.network.stats().perGatewayDeliveries().contains(
      net.knowledge.gatewayIds[0]));
}

TEST(SingleSink, ReBeaconAdaptsToDeadRelay) {
  // Diamond: two parallel 2-hop paths; kill one relay, re-beacon, reroute.
  sim::Simulator simulator;
  net::SensorNetwork network(simulator,
                             std::make_unique<net::UnitDiskRadio>(25.0),
                             LineNet::idealParams());
  const auto src = network.addSensor({40, 0});
  const auto relayTop = network.addSensor({20, 10});
  const auto relayBot = network.addSensor({20, -10});
  NetworkKnowledge knowledge;
  knowledge.gatewayIds.push_back(network.addGateway({0, 0}));
  knowledge.feasiblePlaces = {{0, 0}};
  ProtocolStack stack(network, knowledge,
                      factoryFor<SingleSinkParams, SingleSinkRouting>({}));
  stack.startAll();
  simulator.runUntil(sim::Time::seconds(1.0));

  network.node(relayTop).kill(simulator.now());
  network.node(relayBot).kill(simulator.now());
  // Without the relays the gradient is stale; data dies.
  stack.at(src).originate(Bytes(24, 1));
  simulator.runUntil(sim::Time::seconds(2.0));
  EXPECT_EQ(network.stats().delivered(), 0u);
  (void)relayTop;
  (void)relayBot;
}

// --- LEACH ---------------------------------------------------------------------------

TEST(Leach, HeadElectionRespectsRotation) {
  // With p=0.5 over many rounds roughly half the rounds elect, and a node
  // never heads twice within 1/p rounds.
  LineNet net(1, {{500.0, 0.0}},
              factoryFor<LeachParams, LeachRouting>([] {
                LeachParams p;
                p.clusterHeadFraction = 0.5;
                return p;
              }()));
  auto& node = dynamic_cast<LeachRouting&>(net.stack->at(0));
  std::uint32_t headCount = 0;
  std::uint32_t lastHead = 0;
  bool wasHead = false;
  for (std::uint32_t r = 0; r < 40; ++r) {
    net.stack->beginRound(r);
    net.run(0.5);
    if (node.isClusterHead()) {
      if (wasHead) {
        EXPECT_GE(r - lastHead, 2u);
      }
      lastHead = r;
      wasHead = true;
      ++headCount;
    }
  }
  EXPECT_GE(headCount, 8u);
  EXPECT_LE(headCount, 25u);
}

TEST(Leach, MembersSendToHeadHeadAggregatesToGateway) {
  // Force clustering: node 0 heads (p≈1), others join and send.
  LeachParams params;
  params.clusterHeadFraction = 0.99;
  params.aggregateDelay = sim::Time::seconds(0.5);
  LineNet net(3, {{200.0, 0.0}}, factoryFor<LeachParams, LeachRouting>(params));
  net.stack->beginRound(0);
  net.run(1.0);  // adverts + joins
  for (net::NodeId s = 0; s < 3; ++s) net.stack->at(s).originate(Bytes(24, 1));
  net.run(3.0);
  // All three readings reach the gateway (as heads or members).
  EXPECT_EQ(net.network.stats().delivered(), 3u);
}

TEST(Leach, FallbackDirectWhenNoHeadHeard) {
  LeachParams params;
  params.clusterHeadFraction = 0.01;  // nobody will self-elect round 0..
  LineNet net(2, {{300.0, 0.0}}, factoryFor<LeachParams, LeachRouting>(params));
  net.stack->beginRound(1);  // threshold formula: r=1 keeps T small
  net.run(1.0);
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(2.0);
  EXPECT_EQ(net.network.stats().delivered(), 1u);  // direct long-haul
}

// --- SPR ------------------------------------------------------------------------------

SprParams sprDefaults() { return SprParams{}; }

TEST(Spr, DiscoversMinHopGatewayAmongSeveral) {
  // Line 0..4; near gateway behind node 4, far gateway behind node 0 is
  // further in hops from the source (node 4).
  LineNet net(5, {{-20.0, 0.0}, {100.0, 0.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(4).originate(Bytes(24, 1));
  net.run();
  auto& src = dynamic_cast<SprRouting&>(net.stack->at(4));
  ASSERT_TRUE(src.currentBestGateway().has_value());
  EXPECT_EQ(*src.currentBestGateway(), net.knowledge.gatewayIds[1]);
  ASSERT_TRUE(src.currentRouteHops().has_value());
  EXPECT_EQ(*src.currentRouteHops(), 1);  // node 4 → adjacent gateway
  EXPECT_EQ(net.network.stats().delivered(), 1u);
}

TEST(Spr, FindsExactShortestPathLength) {
  LineNet net(6, {{-20.0, 0.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(5).originate(Bytes(24, 1));
  net.run();
  ASSERT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 6.0);  // BFS dist
}

TEST(Spr, SecondPacketUsesInstalledTablesWithoutNewQuery) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(3).originate(Bytes(24, 1));
  net.run();
  const auto rreqsAfterFirst =
      net.network.stats().framesByKind().at(net::PacketKind::kRreq);
  net.stack->at(3).originate(Bytes(24, 2));
  net.run();
  EXPECT_EQ(net.network.stats().framesByKind().at(net::PacketKind::kRreq),
            rreqsAfterFirst);  // no new flood (step 1 table hit)
  EXPECT_EQ(net.network.stats().delivered(), 2u);
}

TEST(Spr, IntermediateAnswersFromCacheSuppressingFlood) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  // Node 1 (next to the gateway side) learns a route first.
  net.stack->at(1).originate(Bytes(24, 1));
  net.run();
  const auto rreqsBefore =
      net.network.stats().framesByKind().at(net::PacketKind::kRreq);
  // Node 3's query should be answered by node 2 or 1 from cache — fewer
  // RREQ frames than its own full flood would cost.
  net.stack->at(3).originate(Bytes(24, 2));
  net.run();
  const auto rreqsAfter =
      net.network.stats().framesByKind().at(net::PacketKind::kRreq);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
  EXPECT_LE(rreqsAfter - rreqsBefore, 3u);
}

TEST(Spr, RoundBoundaryInvalidatesRoutes) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(3).originate(Bytes(24, 1));
  net.run();
  auto& src = dynamic_cast<SprRouting&>(net.stack->at(3));
  ASSERT_TRUE(src.currentBestGateway().has_value());
  net.stack->beginRound(1);
  EXPECT_FALSE(src.currentBestGateway().has_value());  // §5.1 round reset
}

TEST(Spr, UnreachableGatewayDropsAfterRetries) {
  // Gateway far outside radio range of every sensor.
  LineNet net(3, {{1000.0, 1000.0}},
              factoryFor<SprParams, SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(5.0);
  EXPECT_EQ(net.network.stats().generated(), 1u);
  EXPECT_EQ(net.network.stats().delivered(), 0u);
}

// --- MLR -------------------------------------------------------------------------------

/// Gateways at both ends of the line; places = the two end positions.
struct MlrNet : LineNet {
  MlrNet(std::size_t sensors, MlrParams params = {})
      : LineNet(sensors,
                {{-20.0, 0.0},
                 {20.0 * static_cast<double>(sensors), 0.0}},
                factoryFor<MlrParams, MlrRouting>(params),
                {{-20.0, 0.0},
                 {20.0 * static_cast<double>(sensors), 0.0},
                 {20.0 * static_cast<double>(sensors) / 2.0, 20.0}}) {}

  MlrRouting& mlrAt(net::NodeId id) {
    return dynamic_cast<MlrRouting&>(stack->at(id));
  }

  void announceInitial() {
    stack->beginRound(0);
    mlrAt(knowledge.gatewayIds[0]).announceMove(0, kNoPlace, 0);
    mlrAt(knowledge.gatewayIds[1]).announceMove(1, kNoPlace, 0);
    run(1.0);
  }
};

TEST(Mlr, FloodBuildsBfsCostField) {
  MlrNet net(5);
  net.announceInitial();
  // Node 0 is 1 hop from place 0 and 5 hops from place 1.
  EXPECT_EQ(net.mlrAt(0).placeTable()[0].hops, 1);
  EXPECT_EQ(net.mlrAt(0).placeTable()[1].hops, 5);
  EXPECT_EQ(net.mlrAt(4).placeTable()[0].hops, 5);
  EXPECT_EQ(net.mlrAt(4).placeTable()[1].hops, 1);
  // Occupancy learned everywhere.
  EXPECT_EQ(net.mlrAt(2).occupancy().size(), 2u);
}

TEST(Mlr, SelectsNearestOccupiedPlace) {
  MlrNet net(5);
  net.announceInitial();
  EXPECT_EQ(*net.mlrAt(0).selectedPlace(), 0);
  EXPECT_EQ(*net.mlrAt(4).selectedPlace(), 1);
}

TEST(Mlr, DataReachesNearestGateway) {
  MlrNet net(5);
  net.announceInitial();
  net.stack->at(0).originate(Bytes(24, 1));
  net.stack->at(4).originate(Bytes(24, 2));
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 2u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 1.0);
  EXPECT_EQ(net.network.stats().perGatewayDeliveries().size(), 2u);
}

TEST(Mlr, TablesAccumulateAcrossRounds) {
  // Table 1's central behaviour: entries are added, never discarded.
  MlrNet net(5);
  net.announceInitial();
  EXPECT_EQ(net.mlrAt(2).knownEntryCount(), 2u);

  // Round 1: gateway 0 moves to place 2 (the third feasible place).
  net.stack->beginRound(1);
  net.network.setGatewayPosition(net.knowledge.gatewayIds[0],
                                 net.knowledge.feasiblePlaces[2]);
  net.mlrAt(net.knowledge.gatewayIds[0]).announceMove(2, 0, 1);
  net.run(1.0);

  auto& node2 = net.mlrAt(2);
  EXPECT_EQ(node2.knownEntryCount(), 3u);  // old entries kept, one added
  EXPECT_TRUE(node2.placeTable()[0].known);  // place 0 entry survives
  EXPECT_FALSE(node2.occupancy().contains(0));  // ..but nobody is there now
  EXPECT_TRUE(node2.occupancy().contains(2));
}

TEST(Mlr, RebuildAblationDiscardsTables) {
  MlrParams params;
  params.rebuildEveryRound = true;
  MlrNet net(5, params);
  net.announceInitial();
  EXPECT_GE(net.mlrAt(2).knownEntryCount(), 2u);
  net.stack->beginRound(1);
  EXPECT_EQ(net.mlrAt(2).knownEntryCount(), 0u);  // cleared, must re-learn
}

TEST(Mlr, ReoccupiedPlaceRepointsToNewOccupant) {
  MlrNet net(5);
  net.announceInitial();
  // Gateway 0 leaves place 0; gateway 1 later occupies place 0.
  net.stack->beginRound(1);
  net.network.setGatewayPosition(net.knowledge.gatewayIds[0],
                                 net.knowledge.feasiblePlaces[2]);
  net.mlrAt(net.knowledge.gatewayIds[0]).announceMove(2, 0, 1);
  net.run(1.0);
  net.stack->beginRound(2);
  net.network.setGatewayPosition(net.knowledge.gatewayIds[1],
                                 net.knowledge.feasiblePlaces[0]);
  net.mlrAt(net.knowledge.gatewayIds[1]).announceMove(0, 1, 2);
  net.run(1.0);

  net.stack->at(0).originate(Bytes(24, 1));
  net.run();
  ASSERT_EQ(net.network.stats().delivered(), 1u);
  // Delivery must be recorded by gateway 1 — the CURRENT occupant.
  EXPECT_TRUE(net.network.stats().perGatewayDeliveries().contains(
      net.knowledge.gatewayIds[1]));
}

TEST(Mlr, UnknownPlaceMeansNoRouteDrop) {
  MlrNet net(3);
  // No announcements at all: occupancy empty → originate drops.
  net.stack->beginRound(0);
  net.stack->at(1).originate(Bytes(24, 1));
  net.run();
  EXPECT_EQ(net.network.stats().generated(), 1u);
  EXPECT_EQ(net.network.stats().delivered(), 0u);
}

TEST(Mlr, ReliableModeRecoversViaOtherGateway) {
  MlrParams params;
  params.reliableForwarding = true;
  MlrNet net(5, params);
  net.announceInitial();

  // Kill node 1 — the relay between node 2 and gateway at place 0.
  net.network.node(1).kill(net.simulator.now());
  net.stack->at(2).originate(Bytes(24, 1));
  net.run(2.0);
  // First packet dies (3 ARQ + 3 protocol retries), but the failed link
  // invalidates the entry; the next packet takes the other gateway.
  net.stack->at(2).originate(Bytes(24, 2));
  net.run(3.0);
  EXPECT_GE(net.network.stats().delivered(), 1u);
  EXPECT_TRUE(net.network.stats().perGatewayDeliveries().contains(
      net.knowledge.gatewayIds[1]));
}

TEST(Mlr, MalformedPacketIsDroppedNotFatal) {
  MlrNet net(3);
  net.announceInitial();
  net::Packet evil;
  evil.kind = net::PacketKind::kGatewayMove;
  evil.hopDst = net::kBroadcastId;
  evil.payload = {0xde, 0xad};  // truncated
  net.network.sendFrom(0, evil);
  EXPECT_NO_THROW(net.run());
}

}  // namespace
}  // namespace wmsn::routing
