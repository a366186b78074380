#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "attacks/adversary.hpp"
#include "crypto/ctr.hpp"
#include "crypto/keystore.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "routing/secmlr.hpp"
#include "util/random.hpp"
#include "util/require.hpp"

namespace wmsn::routing {
namespace {

SecMlrConfig testConfig() {
  SecMlrConfig c;
  c.keySeed = 0x5ec;
  c.tesla.chainLength = 128;
  c.tesla.intervalDuration = sim::Time::seconds(0.5);
  c.tesla.disclosureDelay = 2;
  c.collectWindow = sim::Time::milliseconds(100);
  c.responseWindow = sim::Time::seconds(1.0);
  return c;
}

/// Line of sensors (spacing 20, radio 25) with gateways at both ends.
/// Feasible places: the two end positions plus a spare.
struct SecNet {
  sim::Simulator simulator;
  net::SensorNetwork network;
  NetworkKnowledge knowledge;
  std::unique_ptr<ProtocolStack> stack;
  SecMlrConfig config = testConfig();

  explicit SecNet(std::size_t sensors, MlrParams mlrParams = {})
      : network(simulator, std::make_unique<net::UnitDiskRadio>(25.0),
                netParams()) {
    const double endX = 20.0 * static_cast<double>(sensors);
    for (std::size_t i = 0; i < sensors; ++i)
      network.addSensor({20.0 * static_cast<double>(i), 0.0});
    knowledge.feasiblePlaces = {{-20.0, 0.0}, {endX, 0.0}, {endX / 2, 20.0}};
    knowledge.gatewayIds.push_back(network.addGateway({-20.0, 0.0}));
    knowledge.gatewayIds.push_back(network.addGateway({endX, 0.0}));
    stack = std::make_unique<ProtocolStack>(
        network, knowledge,
        [keyring = std::make_shared<SecMlrKeyring>(config),
         ledger = std::make_shared<SecMlrFloodLedger>(network.size()),
         mlrParams](net::SensorNetwork& n, net::NodeId id,
                    const NetworkKnowledge& k) {
          return std::make_unique<SecMlrRouting>(n, id, k, keyring, ledger,
                                                 mlrParams);
        });
    stack->startAll();
  }

  static net::SensorNetworkParams netParams() {
    net::SensorNetworkParams p;
    p.mac = net::MacKind::kIdeal;
    p.medium.collisions = false;
    return p;
  }

  SecMlrRouting& secAt(net::NodeId id) {
    return dynamic_cast<SecMlrRouting&>(stack->at(id));
  }

  /// Announce initial placement and run until TESLA keys disclose and
  /// tables settle.
  void bootstrap() {
    stack->beginRound(0);
    secAt(knowledge.gatewayIds[0]).announceMove(0, kNoPlace, 0);
    secAt(knowledge.gatewayIds[1]).announceMove(1, kNoPlace, 0);
    run(3.0);  // interval 1 signing + delay-2 disclosure ≈ 2 s
  }

  void run(double seconds) {
    simulator.runUntil(simulator.now() + sim::Time::seconds(seconds));
  }
};

TEST(SecMlr, MoveAppliesOnlyAfterKeyDisclosure) {
  SecNet net(4);
  net.stack->beginRound(0);
  net.secAt(net.knowledge.gatewayIds[0]).announceMove(0, kNoPlace, 0);
  // Announcement is signed in interval 1 (0.5 s) and flooded; before the
  // key discloses (interval 3 = 1.5 s) no table entry may exist.
  net.run(1.0);  // t = 1.0 s: flood seen, key still secret
  EXPECT_TRUE(net.secAt(1).occupancy().empty());
  EXPECT_EQ(net.secAt(1).knownEntryCount(), 0u);
  net.run(1.5);  // t = 2.5 s: key disclosed and verified
  EXPECT_TRUE(net.secAt(1).occupancy().contains(0));
  EXPECT_GE(net.secAt(1).knownEntryCount(), 1u);
}

TEST(SecMlr, EndToEndSecureDelivery) {
  SecNet net(4);
  net.bootstrap();
  net.stack->at(2).originate(Bytes(24, 0x42));
  net.run(3.0);
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_EQ(net.network.stats().generated(), 1u);
}

TEST(SecMlr, SessionReusedForFollowUpPackets) {
  SecNet net(4);
  net.bootstrap();
  net.stack->at(2).originate(Bytes(24, 1));
  net.run(3.0);
  const auto rreqs =
      net.network.medium().framesByKind().at(net::PacketKind::kRreq);
  net.stack->at(2).originate(Bytes(24, 2));
  net.stack->at(2).originate(Bytes(24, 3));
  net.run(2.0);
  EXPECT_EQ(net.network.medium().framesByKind().at(net::PacketKind::kRreq),
            rreqs);  // no new discovery
  EXPECT_EQ(net.network.stats().delivered(), 3u);
}

TEST(SecMlr, ChoosesNearGateway) {
  SecNet net(5);
  net.bootstrap();
  net.stack->at(0).originate(Bytes(24, 1));  // adjacent to gateway 0
  net.stack->at(4).originate(Bytes(24, 2));  // adjacent to gateway 1
  net.run(4.0);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
  EXPECT_EQ(net.network.stats().perGatewayDeliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 1.0);
}

TEST(SecMlr, ReplayedDataRejectedAtGateway) {
  SecNet net(3);
  net.bootstrap();
  net.stack->at(1).originate(Bytes(24, 1));
  net.run(3.0);
  ASSERT_EQ(net.network.stats().delivered(), 1u);

  // Capture what the gateway's neighbour would forward and replay it: the
  // simplest replay is re-sending the source's own frame. Craft it by
  // asking the source to re-encrypt with an OLD counter — equivalently,
  // re-inject the identical wire bytes.
  // We emulate an on-air replay by having node 1 re-send its last DATA
  // frame verbatim via the raw network interface.
  auto& gwStats = net.secAt(net.knowledge.gatewayIds[0]);
  const auto rejectedBefore = gwStats.rejectedReplays() +
                              net.secAt(net.knowledge.gatewayIds[1])
                                  .rejectedReplays();

  // Construct a replay: encode a SecDataMsg with counter 1 (already used).
  crypto::KeyStore ks = crypto::KeyStore::fromSeed(net.config.keySeed);
  SecDataMsg msg;
  msg.source = 1;
  // Find which gateway delivered.
  const auto gw = net.network.stats().perGatewayDeliveries().begin()->first;
  msg.gateway = static_cast<std::uint16_t>(gw);
  msg.immediateSender = 1;
  msg.immediateReceiver = static_cast<std::uint16_t>(gw);
  msg.dataSeq = 1;
  msg.counter = 1;  // stale
  const crypto::Key key =
      ks.pairwiseKey(1, static_cast<std::uint16_t>(gw));
  msg.encData = crypto::SpeckCtr(key).encrypt(msg.counter, Bytes(24, 1));
  msg.mac = crypto::packetMac(key, msg.counter, msg.macInput());

  net::Packet pkt;
  pkt.kind = net::PacketKind::kData;
  pkt.origin = 1;
  pkt.hopDst = gw;
  pkt.payload = msg.encode();
  // The replayer must be within radio range of the gateway it targets.
  const net::NodeId replayer = gw == net.knowledge.gatewayIds[0] ? 0u : 2u;
  net.network.sendFrom(replayer, pkt);
  net.run(1.0);

  const auto rejectedAfter = net.secAt(net.knowledge.gatewayIds[0])
                                 .rejectedReplays() +
                             net.secAt(net.knowledge.gatewayIds[1])
                                 .rejectedReplays();
  EXPECT_EQ(rejectedAfter, rejectedBefore + 1);
  EXPECT_EQ(net.network.stats().duplicateDeliveries(), 0u);
}

TEST(SecMlr, ForgedMacRejectedAtGateway) {
  SecNet net(3);
  net.bootstrap();

  SecDataMsg msg;
  msg.source = 1;
  msg.gateway = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  msg.immediateSender = 1;
  msg.immediateReceiver = msg.gateway;
  msg.counter = 50;
  msg.encData = Bytes(24, 0xee);
  msg.mac.fill(0x00);  // garbage tag

  net::Packet pkt;
  pkt.kind = net::PacketKind::kData;
  pkt.hopDst = net.knowledge.gatewayIds[0];
  pkt.payload = msg.encode();
  net.network.sendFrom(0, pkt);  // node 0 is in range of gateway 0
  net.run(1.0);

  EXPECT_EQ(net.secAt(net.knowledge.gatewayIds[0]).rejectedMacs(), 1u);
  EXPECT_EQ(net.network.stats().delivered(), 0u);
}

TEST(SecMlr, ForgedMoveNotificationNeverApplies) {
  SecNet net(4);
  net.bootstrap();
  ASSERT_TRUE(net.secAt(2).occupancy().contains(0));

  // Forge: "gateway 0 moved to place 2" with a random MAC, signed for a
  // plausible future interval.
  GatewayMoveMsg move;
  move.gateway = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  move.newPlace = 2;
  move.prevPlace = 0;
  move.round = 1;
  SecMoveMsg wire;
  wire.gateway = move.gateway;
  wire.teslaPayload = move.encode();
  wire.interval =
      static_cast<std::uint32_t>(net.simulator.now().us / 500'000) + 1;
  wire.mac.fill(0xab);
  wire.hopCount = 0;

  net::Packet pkt;
  pkt.kind = net::PacketKind::kGatewayMove;
  pkt.hopDst = net::kBroadcastId;
  pkt.payload = wire.encode();
  net.network.sendFrom(1, pkt);
  net.run(4.0);  // give the real gateway time to disclose that interval

  // Occupancy unchanged: gateway 0 still at place 0, place 2 unoccupied.
  EXPECT_TRUE(net.secAt(2).occupancy().contains(0));
  EXPECT_FALSE(net.secAt(2).occupancy().contains(2));
}

TEST(SecMlr, GatewayMoveInvalidatesSessions) {
  SecNet net(4);
  net.bootstrap();
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(3.0);
  const auto nearGw = net.knowledge.gatewayIds[0];
  ASSERT_TRUE(net.secAt(0).hasSessionTo(nearGw));

  // Gateway 0 moves to the spare place; after disclosure the session dies.
  net.stack->beginRound(1);
  net.network.setGatewayPosition(nearGw, net.knowledge.feasiblePlaces[2]);
  net.secAt(nearGw).announceMove(2, 0, 1);
  net.run(3.0);
  EXPECT_FALSE(net.secAt(0).hasSessionTo(nearGw));

  // Traffic still flows — a fresh discovery targets the best current
  // gateway.
  net.stack->at(0).originate(Bytes(24, 2));
  net.run(4.0);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
}

TEST(SecMlr, OffPathInjectionDroppedByForwarder) {
  SecNet net(5);
  net.bootstrap();
  net.stack->at(0).originate(Bytes(24, 1));
  net.run(3.0);
  ASSERT_EQ(net.network.stats().delivered(), 1u);

  // Node 3 (off the 0→gateway0 path) injects a frame claiming to be part of
  // source 0's session, addressed to forwarder... node 0's path to gateway 0
  // is direct (1 hop), so use source 4's side instead: establish 4→gw1 via
  // nodes... simpler: inject toward node 1 with a wrong immediateSender.
  SecDataMsg msg;
  msg.source = 0;
  msg.gateway = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  msg.immediateSender = 3;  // not the expected upstream
  msg.immediateReceiver = 1;
  msg.counter = 40;
  msg.encData = Bytes(24, 1);
  msg.mac.fill(0x11);

  net::Packet pkt;
  pkt.kind = net::PacketKind::kData;
  pkt.hopDst = 1;
  pkt.payload = msg.encode();
  net.network.sendFrom(3, pkt);
  net.run(1.0);
  // Nothing new delivered, no crash.
  EXPECT_EQ(net.network.stats().delivered(), 1u);
}

TEST(SecMlr, CryptoCostLandsOnGatewaysNotForwarders) {
  SecNet net(6);
  net.bootstrap();
  // Source 2 routes through forwarder 1 to gateway 0.
  net.stack->at(2).originate(Bytes(24, 1));
  net.run(3.0);
  ASSERT_GE(net.network.stats().delivered(), 1u);

  const double forwarderCpu = net.network.node(1).battery().cpuJ();
  const double sourceCpu = net.network.node(2).battery().cpuJ();
  const double gatewayCpu =
      net.network.node(net.knowledge.gatewayIds[0]).battery().cpuJ();
  // §6.2.4: intermediate sensors do no crypto on data; sources MAC/encrypt;
  // gateways verify everything. (Forwarders still paid TESLA verification,
  // so compare *data-path* cost via the source/gateway dominance.)
  EXPECT_GT(sourceCpu, 0.0);
  EXPECT_GT(gatewayCpu, forwarderCpu);
}

// --- relay semantics of secure queries ------------------------------------------

std::uint64_t rreqFrames(const SecNet& net) {
  const auto byKind = net.network.medium().framesByKind();
  const auto it = byKind.find(net::PacketKind::kRreq);
  return it == byKind.end() ? 0 : it->second;
}

/// A query copy from `source` to `gateway` carrying `path`, with a fresh
/// counter. The MAC is genuine only when `keyed` is set; relays never
/// check it.
net::Packet rreqCopy(const SecNet& net, std::uint16_t source,
                     std::uint16_t gateway, std::uint32_t reqId, Path path,
                     bool keyed = false) {
  const std::uint64_t counter = 1000;
  SecRreqMsg msg;
  msg.source = source;
  msg.gateway = gateway;
  msg.reqId = reqId;
  msg.counter = counter;
  const crypto::Key key =
      crypto::KeyStore::fromSeed(net.config.keySeed).pairwiseKey(source,
                                                                 gateway);
  msg.encReq = crypto::SpeckCtr(key).encrypt(counter, Bytes(8, 0));
  msg.path = std::move(path);
  if (keyed) msg.mac = crypto::packetMac(key, counter, msg.macInput());
  net::Packet pkt;
  pkt.kind = net::PacketKind::kRreq;
  pkt.hopDst = net::kBroadcastId;
  pkt.payload = msg.encode();
  return pkt;
}

// Line 0-1-2-3 (sensors 20 m apart, radio 25 m): sensor 2 hears only 1 and
// 3, so an injected copy from 1 reaches relay 2 and the source 0, and 2's
// relay reaches 3.

TEST(SecMlrRelay, NonSimpleFirstCopyDoesNotMarkTheQuerySeen) {
  SecNet net(4);
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  const std::uint64_t before = rreqFrames(net);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 77, {0, 1, 0}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 1) << "nobody relays a looping path";

  // The valid copy that follows is relayed by 2, and 2's relay by 3.
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 77, {0, 1}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 4);
}

TEST(SecMlrRelay, CopyAfterForwardingIsNotRebroadcast) {
  SecNet net(4);
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  const std::uint64_t before = rreqFrames(net);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 78, {0, 1}));
  net.run(0.5);
  ASSERT_EQ(rreqFrames(net), before + 3);  // injected, 2's and 3's relays

  // The same copy again, a different path through 3, and a looping one:
  // each is heard by relay 2 (and 3 or 0), and nobody re-broadcasts.
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 78, {0, 1}));
  net.run(0.5);
  net.network.sendFrom(3, rreqCopy(net, 0, gw1, 78, {0, 3}));
  net.run(0.5);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 78, {0, 1, 0}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 6);
}

TEST(SecMlrRelay, AddressedGatewayCollectsEveryCopy) {
  SecNet net(4);
  net.bootstrap();
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  ASSERT_FALSE(net.secAt(2).hasSessionTo(gw1));

  // Two copies of one genuine query from source 2 reach gateway 1 through
  // sensor 3. The first claims a detour via 1, which is not 3's
  // neighbour, so a response along it cannot arrive. Only if the gateway
  // also collects the second, shorter copy does it answer along 3 → 2.
  net.network.sendFrom(3, rreqCopy(net, 2, gw1, 79, {2, 1, 3}, true));
  net.run(0.02);
  net.network.sendFrom(3, rreqCopy(net, 2, gw1, 79, {2, 3}, true));
  net.run(1.0);
  EXPECT_EQ(net.secAt(gw1).rejectedMacs(), 0u);
  EXPECT_TRUE(net.secAt(2).hasSessionTo(gw1));
}

// Relays remember queries in the scenario's flood ledger, one bit per node
// per flood; these pin the behaviour a per-node set of seen queries gives.

TEST(SecMlrRelay, FirstCopyOfAnOlderQueryAfterANewerOneIsRelayedOnce) {
  SecNet net(4);
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  const std::uint64_t before = rreqFrames(net);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 81, {0, 1}));
  net.run(0.5);
  ASSERT_EQ(rreqFrames(net), before + 3);  // injected, 2's and 3's relays

  // reqId 80 is older than 81 but has not been seen: relayed by 2 and 3.
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 80, {0, 1}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 6);
  // Its second copy is not.
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 80, {0, 1}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 7);
}

TEST(SecMlrRelay, DuplicateCopyIsDroppedBeforeDecode) {
  SecNet net(4);
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 83, {0, 1}));
  net.run(0.5);

  // Decoding a copy allocates its ciphertext and path. Relay 2 has
  // forwarded query 83, so a copy of it costs no allocation at all; a
  // looping copy of an unseen query is decoded before it is rejected.
  const net::Packet seen = rreqCopy(net, 0, gw1, 83, {0, 1});
  const net::Packet unseen = rreqCopy(net, 0, gw1, 84, {0, 1, 0});
  std::uint64_t seenAllocations = 0;
  std::uint64_t unseenAllocations = 0;
  {
    obs::AllocationScope allocations;
    net.secAt(2).onReceive(seen, 1);
    seenAllocations = allocations.count();
  }
  {
    obs::AllocationScope allocations;
    net.secAt(2).onReceive(unseen, 1);
    unseenAllocations = allocations.count();
  }
  EXPECT_EQ(seenAllocations, 0u);
  EXPECT_GT(unseenAllocations, 0u);
}

TEST(SecMlrRelay, NodeReplacedByAnAttackerStartsWithNoMarks) {
  SecNet net(4);
  const auto gw1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  const std::uint64_t before = rreqFrames(net);
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 85, {0, 1}));
  net.run(0.5);
  ASSERT_EQ(rreqFrames(net), before + 3);

  // Capture relay 2 mid-run. A grey hole routes honestly, so it relays a
  // query it has not seen; its honest predecessor's mark is gone, while
  // relay 3 keeps its own.
  attacks::AttackPlan plan;
  plan.kind = attacks::AttackKind::kSelectiveForward;
  plan.attackers = {2};
  attacks::installAttack(*net.stack, net.network, plan,
                         attacks::VictimProtocol::kSecMlr, MlrParams{});
  EXPECT_EQ(net.secAt(2).ledger(), net.secAt(3).ledger());
  net.network.sendFrom(1, rreqCopy(net, 0, gw1, 85, {0, 1}));
  net.run(0.5);
  EXPECT_EQ(rreqFrames(net), before + 5);  // injected and 2's relay only
}

TEST(SecMlrFloodLedger, MatchesPerNodeSetsUnderRandomOperations) {
  // 130 nodes span three words per row; 600 keys grow the index from 64
  // slots to 2048. Sources above 65,535 pack by their low 16 bits, as the
  // wire carries them, so they alias the source 65,536 below them.
  constexpr std::size_t kNodes = 130;
  SecMlrFloodLedger ledger(kNodes);
  std::vector<std::unordered_set<std::uint64_t>> sets[2] = {
      std::vector<std::unordered_set<std::uint64_t>>(kNodes),
      std::vector<std::unordered_set<std::uint64_t>>(kNodes)};
  Rng rng(25);
  auto randomKey = [&rng] {
    const auto source = static_cast<std::uint32_t>(rng.uniformInt(0, 70000));
    const auto gateway = static_cast<std::uint16_t>(rng.uniformInt(0, 3));
    const auto reqId = static_cast<std::uint32_t>(rng.uniformInt(0, 4));
    return (static_cast<std::uint64_t>(source & 0xffff) << 16 | gateway)
               << 32 |
           reqId;
  };
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 600; ++i) keys.push_back(randomKey());
  keys.push_back(std::uint64_t{70000 & 0xffff} << 48);
  keys.push_back(std::uint64_t{70000 - 65536} << 48);  // the same key
  keys.push_back(0);
  keys.push_back(~std::uint64_t{0});

  constexpr SecMlrFlood kKinds[] = {SecMlrFlood::kQuery,
                                    SecMlrFlood::kDisclose};
  for (int op = 0; op < 200000; ++op) {
    const auto flood = static_cast<std::size_t>(rng.uniformInt(0, 1));
    const SecMlrFlood kind = kKinds[flood];
    const auto node =
        static_cast<net::NodeId>(rng.uniformInt(0, kNodes - 1));
    const std::uint64_t key = keys[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(keys.size()) - 1))];
    const std::int64_t action = rng.uniformInt(0, 999);
    if (action < 450) {
      ASSERT_EQ(ledger.marked(kind, key, node), sets[flood][node].contains(key))
          << "op " << op;
    } else if (action < 999) {
      ASSERT_EQ(ledger.mark(kind, key, node),
                sets[flood][node].insert(key).second)
          << "op " << op;
    } else {
      ledger.forget(node);  // a replaced protocol's fresh, empty sets
      sets[0][node].clear();
      sets[1][node].clear();
    }
  }
  for (std::size_t flood = 0; flood < 2; ++flood)
    for (net::NodeId node = 0; node < kNodes; ++node)
      for (std::uint64_t key : keys)
        ASSERT_EQ(ledger.marked(kKinds[flood], key, node),
                  sets[flood][node].contains(key));
}

// --- the shared keyring ------------------------------------------------------------

TEST(SecMlrKeyring, MatchesDirectDerivationForEverySeedAndGateway) {
  const Bytes msg = {'m', 'o', 'v', 'e', 0, 1, 2, 3};
  for (std::uint64_t seed : {1ull, 0x5ecull, 0xc0ffeeull}) {
    SecMlrConfig config = testConfig();
    config.keySeed = seed;
    config.tesla.chainLength = 40;
    SecMlrKeyring ring(config);
    const crypto::KeyStore direct = crypto::KeyStore::fromSeed(seed);

    for (net::NodeId gw : {100u, 101u, 102u}) {
      const crypto::TeslaChain chain(direct.broadcastSeedKey(gw), 40);
      const auto& shared = ring.teslaChain(gw);
      ASSERT_EQ(shared->length(), chain.length());
      for (std::size_t i = 0; i < chain.length(); ++i)
        EXPECT_EQ(shared->key(i), chain.key(i)) << "seed " << seed;
      EXPECT_EQ(ring.teslaChain(gw).get(), shared.get()) << "built once";

      for (net::NodeId sensor : {0u, 7u, 99u, 70000u}) {
        const auto& pk = ring.pairKey(sensor, gw);
        const crypto::Key key = direct.pairwiseKey(sensor, gw);
        EXPECT_EQ(pk.key, key);
        EXPECT_EQ(crypto::packetMac(pk.hmac, 9, msg),
                  crypto::packetMac(key, 9, msg));
      }
      // Keyed by the full node id, not its low 16 bits.
      EXPECT_NE(ring.pairKey(70000, gw).key,
                ring.pairKey(70000 & 0xffff, gw).key);

      for (std::size_t i : {1u, 5u, 39u})
        EXPECT_EQ(crypto::packetMac(ring.teslaMacKey(chain.key(i)), i, msg),
                  crypto::packetMac(crypto::TeslaChain::macKey(chain.key(i)),
                                    i, msg));

      // Walks back down the chain: memoised, longer and shorter than a
      // memoised one, and the empty walk.
      EXPECT_EQ(ring.walk(chain.key(20), 5), chain.key(15));
      EXPECT_EQ(ring.walk(chain.key(20), 12), chain.key(8));
      EXPECT_EQ(ring.walk(chain.key(20), 3), chain.key(17));
      EXPECT_EQ(ring.walk(chain.key(20), 5), chain.key(15));
      EXPECT_EQ(ring.walk(chain.key(20), 0), chain.key(20));
    }

    // A forged disclosed key walks to what the direct steps give, which is
    // no chain key, and its MAC key is still TeslaChain::macKey's.
    crypto::Key forged{};
    forged.fill(0xee);
    crypto::Key stepped = forged;
    for (int i = 0; i < 7; ++i) stepped = crypto::TeslaChain::step(stepped);
    EXPECT_EQ(ring.walk(forged, 7), stepped);
    EXPECT_NE(ring.walk(forged, 7), ring.teslaChain(100)->key(0));
    EXPECT_EQ(crypto::packetMac(ring.teslaMacKey(forged), 3, msg),
              crypto::packetMac(crypto::TeslaChain::macKey(forged), 3, msg));
  }
}

TEST(SecMlrKeyring, EveryNodeOfAStackSharesOne) {
  SecNet net(3);
  const SecMlrKeyring* ring = net.secAt(0).keyring().get();
  for (net::NodeId id = 1; id < 5; ++id)
    EXPECT_EQ(net.secAt(id).keyring().get(), ring);
}

TEST(SecMlr, ParamsValidateChainLongEnough) {
  // A chain too short for the requested horizon throws at sign time, not
  // silently.
  SecNet net(3);
  net.config.tesla.chainLength = 4;
  // (no announce — just assert TeslaBroadcaster guards; covered in crypto
  // tests. Here we only check the protocol survives bootstrap with the
  // default config.)
  net.bootstrap();
  SUCCEED();
}

}  // namespace
}  // namespace wmsn::routing
