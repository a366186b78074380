#include <gtest/gtest.h>

#include <functional>

#include "crypto/ctr.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "routing/diffusion.hpp"
#include "routing/flooding.hpp"
#include "routing/leach.hpp"
#include "routing/messages.hpp"
#include "routing/mlr.hpp"
#include "routing/secmlr.hpp"
#include "routing/single_sink.hpp"
#include "routing/spin.hpp"
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

TEST(Messages, AggregateDecodeChecksEntryCountBeforeAllocating) {
  // `ff ff` claims 65,535 entries (11 B each on air) in a 2-byte frame: the
  // decoder must reject it before it allocates room for them.
  const Bytes frame = {0xff, 0xff};
  obs::AllocationScope allocations;
  try {
    (void)AggregateMsg::decode(frame);
    ADD_FAILURE() << "a truncated aggregate decoded";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated packet"),
              std::string::npos);
  }
  EXPECT_LT(allocations.bytes(), 1024u);
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

template <typename Protocol, typename... Params>
ProtocolStack::Factory factoryFor(Params... params) {
  return [params...](net::SensorNetwork& n, net::NodeId id,
                     const NetworkKnowledge& k) {
    return std::make_unique<Protocol>(n, id, k, params...);
  };
}

// --- wire layouts, pinned ----------------------------------------------------

/// One fully populated wire message: its encoding, the exact hex that
/// encoding must have, and a decoder that re-encodes what it read.
struct WireCase {
  std::string name;
  Bytes encoded;
  std::string hex;
  std::function<Bytes(const Bytes&)> reencode;
};

template <typename Msg>
WireCase wireCase(std::string name, const Msg& msg, std::string hex) {
  return {std::move(name), msg.encode(), std::move(hex),
          [](const Bytes& payload) { return Msg::decode(payload).encode(); }};
}

/// The payload of the first frame of `kind` a network puts on air.
struct FirstOnAir {
  std::optional<Bytes> payload;
  FirstOnAir(net::SensorNetwork& network, net::PacketKind kind) {
    network.attachFrameObserver(
        "wire-pin",
        [this, kind](const net::Packet& p, net::NodeId, bool transmit) {
          if (transmit && p.kind == kind && !payload) payload = p.payload;
        });
  }
};

Bytes prefixOf(const Bytes& bytes, std::size_t n) {
  return Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
}

std::uint64_t framesOfKind(const net::SensorNetwork& network,
                           net::PacketKind kind) {
  const auto byKind = network.medium().framesByKind();
  const auto it = byKind.find(kind);
  return it == byKind.end() ? 0 : it->second;
}

/// Every routing wire format, byte for byte. Each field holds a distinct
/// value, so the hex reads as the layout: little-endian integers, u16
/// length-prefixed byte strings, u8-count paths of u16 hops, raw 8-byte
/// MACs and 16-byte keys. Every strict prefix of an encoding must fail to
/// decode with PreconditionError (a truncated frame is dropped, never read
/// past its end).
TEST(Messages, WireLayoutsArePinned) {
  RreqMsg rreq;
  rreq.reqId = 0x11121314;
  rreq.targetGateway = 0x2122;
  rreq.path = {0x3132, 0x3334};

  RresMsg rres;
  rres.reqId = 0x11121314;
  rres.gateway = 0x2122;
  rres.place = 0x2324;
  rres.path = {0x3132, 0x3334, 0x3536};
  rres.cursor = 0x4142;

  DataMsg data;
  data.source = 0x0102;
  data.gateway = 0x0304;
  data.place = 0x0506;
  data.dataSeq = 0x11121314;
  data.route = {0x2122, 0x2324};
  data.cursor = 0x3132;
  data.reading = {0xa1, 0xa2, 0xa3};

  GatewayMoveMsg move;
  move.gateway = 0x0102;
  move.newPlace = 0x0304;
  move.prevPlace = 0x0506;
  move.round = 0x11121314;
  move.hopCount = 0x2122;

  LoadAdvisoryMsg advisory;
  advisory.gateway = 0x0102;
  advisory.place = 0x0304;
  advisory.round = 0x11121314;
  advisory.loadPermille = 0x2122;
  advisory.hopCount = 0x2324;

  CommandMsg command;
  command.gateway = 0x0102;
  command.target = 0x0304;
  command.commandSeq = 0x11121314;
  command.body = {0xb1, 0xb2};

  CostBeaconMsg beacon;
  beacon.sink = 0x0102;
  beacon.cost = 0x0304;
  beacon.epoch = 0x11121314;

  ChAdvertMsg advert;
  advert.round = 0x11121314;
  ChJoinMsg join;
  join.round = 0x21222324;

  AggregateMsg aggregate;
  aggregate.entries.push_back({0x0102030405060708ull, 0x1112, 0x21});
  aggregate.entries.push_back({0x3132333435363738ull, 0x4142, 0x51});

  SecRreqMsg secRreq;
  secRreq.source = 0x0102;
  secRreq.gateway = 0x0304;
  secRreq.reqId = 0x11121314;
  secRreq.counter = 0x2122232425262728ull;
  secRreq.encReq = {0xe1, 0xe2, 0xe3};
  secRreq.path = {0x3132, 0x3334};
  secRreq.mac = {0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8};

  SecRresMsg secRres;
  secRres.source = 0x0102;
  secRres.gateway = 0x0304;
  secRres.place = 0x0506;
  secRres.reqId = 0x11121314;
  secRres.counter = 0x2122232425262728ull;
  secRres.encRes = {0xe1, 0xe2};
  secRres.path = {0x3132, 0x3334};
  secRres.cursor = 0x4142;
  secRres.mac = {0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8};

  SecDataMsg secData;
  secData.source = 0x0102;
  secData.gateway = 0x0304;
  secData.immediateSender = 0x0506;
  secData.immediateReceiver = 0x0708;
  secData.dataSeq = 0x11121314;
  secData.counter = 0x2122232425262728ull;
  secData.encData = {0xe1, 0xe2, 0xe3, 0xe4};
  secData.mac = {0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8};

  SecMoveMsg secMove;
  secMove.gateway = 0x0102;
  secMove.teslaPayload = {0xd1, 0xd2, 0xd3};
  secMove.interval = 0x11121314;
  secMove.mac = {0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8};
  secMove.hopCount = 0x2122;

  KeyDiscloseMsg disclose;
  disclose.gateway = 0x0102;
  disclose.interval = 0x11121314;
  for (std::size_t i = 0; i < disclose.key.size(); ++i)
    disclose.key[i] = static_cast<std::uint8_t>(0xc0 + i);

  AckMsg ack;
  ack.uid = 0x0102030405060708ull;

  const std::vector<WireCase> cases = {
      wireCase("RreqMsg", rreq, "1413121122210232313433"),
      wireCase("RresMsg", rres,
               "1413121122212423033231343336354241"),
      wireCase("DataMsg", data,
               "02010403060514131211022221242332310300a1a2a3"),
      wireCase("GatewayMoveMsg", move, "020104030605141312112221"),
      wireCase("LoadAdvisoryMsg", advisory, "020104031413121122212423"),
      wireCase("CommandMsg", command, "02010403141312110200b1b2"),
      wireCase("CostBeaconMsg", beacon, "0201040314131211"),
      wireCase("ChAdvertMsg", advert, "14131211"),
      wireCase("ChJoinMsg", join, "24232221"),
      wireCase("AggregateMsg", aggregate,
               "020008070605040302011211213837363534333231424151"),
      wireCase("SecRreqMsg", secRreq,
               "020104031413121128272625242322210300e1e2e30232313433"
               "f1f2f3f4f5f6f7f8"),
      wireCase("SecRresMsg", secRres,
               "0201040306051413121128272625242322210200e1e2023231343342"
               "41f1f2f3f4f5f6f7f8"),
      wireCase("SecDataMsg", secData,
               "02010403060508071413121128272625242322210400e1e2e3e4f1f2"
               "f3f4f5f6f7f8"),
      wireCase("SecMoveMsg", secMove,
               "02010300d1d2d314131211f1f2f3f4f5f6f7f82221"),
      wireCase("KeyDiscloseMsg", disclose,
               "020114131211c0c1c2c3c4c5c6c7c8c9cacbcccdcecf"),
      wireCase("AckMsg", ack, "0807060504030201"),
  };
  for (const WireCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(toHex(c.encoded), c.hex);
    EXPECT_EQ(c.reencode(c.encoded), c.encoded);
    for (std::size_t n = 0; n < c.encoded.size(); ++n)
      EXPECT_THROW(c.reencode(prefixOf(c.encoded, n)), PreconditionError)
          << "prefix of " << n << " bytes decoded";
  }
  // The bytes SecMLR's MACs cover: the packet-kind byte, then every field
  // but the MAC itself and the per-hop path, cursor and IS/IR.
  const std::vector<std::pair<std::string, std::string>> macInputs = {
      {toHex(secRreq.macInput()),
       "02020104031413121128272625242322210300e1e2e3"},
      {toHex(secRres.macInput()),
       "030201040306051413121128272625242322210200e1e20232313433"},
      {toHex(secData.macInput()),
       "04020104031413121128272625242322210400e1e2e3e4"},
  };
  for (const auto& [got, want] : macInputs) EXPECT_EQ(got, want);

  // SecRreqMsg::Id: the query's identity, read off the first 8 bytes.
  const Bytes query = secRreq.encode();
  for (std::size_t n = 0; n <= query.size(); ++n) {
    const auto id = SecRreqMsg::peekId(prefixOf(query, n));
    ASSERT_EQ(id.has_value(), n >= 8) << n;
    if (!id) continue;
    EXPECT_EQ(id->source, secRreq.source);
    EXPECT_EQ(id->gateway, secRreq.gateway);
    EXPECT_EQ(id->reqId, secRreq.reqId);
  }
}

/// SPIN's descriptor, diffusion's reinforcement and SecMLR's sealed command
/// body, pinned as captured on air from live runs, so the pin holds however
/// a protocol builds them. Their truncations are fed to live nodes, which
/// must drop them.
TEST(Messages, ProtocolPayloadLayoutsArePinned) {
  // SPIN: ADV and REQ carry the data descriptor, u64 uid + u8 hops.
  const ProtocolStack::Factory spin = [](net::SensorNetwork& n, net::NodeId id,
                                         const NetworkKnowledge& k) {
    return std::make_unique<SpinRouting>(n, id, k);
  };
  {
    LineNet net(3, {{60.0, 0.0}}, spin);
    FirstOnAir adv(net.network, net::PacketKind::kAdv);
    net.stack->at(0).originate(Bytes(24, 1));
    net.run();
    ASSERT_TRUE(adv.payload.has_value());
    EXPECT_EQ(toHex(*adv.payload), "010000000000000000");  // uid 1, hops 0

    LineNet victim(2, {{500.0, 0.0}}, spin);
    for (std::size_t n = 0; n < adv.payload->size(); ++n) {
      net::Packet truncated;
      truncated.kind = net::PacketKind::kAdv;
      truncated.hopDst = net::kBroadcastId;
      truncated.payload = prefixOf(*adv.payload, n);
      victim.network.sendFrom(0, truncated);
    }
    victim.run();
    EXPECT_EQ(framesOfKind(victim.network, net::PacketKind::kReq), 0u)
        << "a truncated ADV was answered";
  }

  // Diffusion: a reinforcement names the exploratory data's origin (u16).
  const ProtocolStack::Factory diffusion =
      [](net::SensorNetwork& n, net::NodeId id, const NetworkKnowledge& k) {
        return std::make_unique<DiffusionRouting>(n, id, k);
      };
  {
    LineNet net(4, {{-20.0, 0.0}}, diffusion);
    net.run(1.0);  // the sink's interest flood
    FirstOnAir reinforce(net.network, net::PacketKind::kReinforce);
    net.stack->at(3).originate(Bytes(24, 1));
    net.run(3.0);
    ASSERT_TRUE(reinforce.payload.has_value());
    EXPECT_EQ(toHex(*reinforce.payload), "0300");  // origin: sensor 3

    LineNet victim(2, {{-20.0, 0.0}}, diffusion);
    victim.run(1.0);
    for (std::size_t n = 0; n < reinforce.payload->size(); ++n) {
      net::Packet truncated;
      truncated.kind = net::PacketKind::kReinforce;
      truncated.hopDst = 0;
      truncated.payload = prefixOf(*reinforce.payload, n);
      victim.network.sendFrom(victim.knowledge.gatewayIds[0], truncated);
    }
    victim.run();
    EXPECT_FALSE(
        dynamic_cast<DiffusionRouting&>(victim.stack->at(0)).reinforced())
        << "a truncated reinforcement was followed";
  }

  // SecMLR: a command body is sealed as u64 counter, the u16
  // length-prefixed ciphertext and the raw 8-byte MAC.
  const auto keyring = std::make_shared<SecMlrKeyring>(SecMlrConfig{});
  const auto ledger = std::make_shared<SecMlrFloodLedger>(4);  // 3 + gateway
  const ProtocolStack::Factory secmlr =
      [keyring, ledger](net::SensorNetwork& n, net::NodeId id,
                        const NetworkKnowledge& k) {
        return std::make_unique<SecMlrRouting>(n, id, k, keyring, ledger);
      };
  LineNet net(3, {{-20.0, 0.0}}, secmlr);
  net.stack->beginRound(0);
  const net::NodeId gateway = net.knowledge.gatewayIds[0];
  auto& target = dynamic_cast<SecMlrRouting&>(net.stack->at(2));
  int accepted = 0;
  target.setCommandHandler([&](const CommandMsg&) { ++accepted; });
  FirstOnAir sealed(net.network, net::PacketKind::kCommand);
  const Bytes plain = {0xc1, 0xc2, 0xc3};
  dynamic_cast<SecMlrRouting&>(net.stack->at(gateway)).sendCommand(2, plain);
  net.run(2.0);
  ASSERT_TRUE(sealed.payload.has_value());
  // CommandMsg (gateway 3, target 2, seq 1) around the 21-byte sealed body:
  // counter 1, 3 bytes of ciphertext, the MAC.
  EXPECT_EQ(toHex(*sealed.payload),
            "0300020001000000150001000000000000000300"
            "4f8b143936d2cdb0421a6b");
  ASSERT_EQ(accepted, 1);

  // The body is exactly what the layout says, under the pair key K_2,gw.
  CommandMsg outer = CommandMsg::decode(*sealed.payload);
  ByteReader body(outer.body);
  const std::uint64_t counter = body.u64();
  const Bytes enc = body.bytes();
  const Bytes mac = body.raw(crypto::kPacketMacSize);
  EXPECT_TRUE(body.empty());
  const auto& pairKey = keyring->pairKey(2, gateway);
  EXPECT_EQ(enc, crypto::SpeckCtr(pairKey.key).encrypt(counter, plain));
  const crypto::PacketMac expectMac =
      crypto::packetMac(pairKey.hmac, counter, enc);
  EXPECT_EQ(mac, Bytes(expectMac.begin(), expectMac.end()));

  // Every truncation of the sealed body is dropped before the MAC check;
  // the whole body, re-sent under a fresh sequence, reaches the counter
  // check and is rejected there as the replay it is.
  net::Packet forged;
  forged.kind = net::PacketKind::kCommand;
  forged.hopDst = net::kBroadcastId;
  const Bytes whole = outer.body;
  for (std::size_t n = 0; n <= whole.size(); ++n) {
    outer.commandSeq = 1000 + static_cast<std::uint32_t>(n);
    outer.body = prefixOf(whole, n);
    forged.payload = outer.encode();
    net.network.sendFrom(0, forged);
  }
  net.run(2.0);
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(target.rejectedMacs(), 0u);
  EXPECT_EQ(target.rejectedReplays(), 1u);
}

// --- flooding / gossip ----------------------------------------------------------

TEST(Flooding, DeliversAcrossMultipleHops) {
  // 5 sensors in a line, gateway past the last one: 0→…→4→G.
  LineNet net(5, {{100.0, 0.0}},
              factoryFor<FloodingRouting>(FloodingParams{}));
  net.stack->at(0).originate(Bytes(24, 1));
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().max(), 5.0);
}

TEST(Flooding, TtlLimitsPropagation) {
  FloodingParams params;
  params.maxHops = 3;
  LineNet net(6, {{140.0, 0.0}},
              factoryFor<FloodingRouting>(params));
  net.stack->at(0).originate(Bytes(24, 1));  // gateway is 7 hops away
  net.run();
  EXPECT_EQ(net.network.stats().delivered(), 0u);
}

TEST(Flooding, EveryNodeRebroadcastsOnce) {
  LineNet net(5, {{120.0, 0.0}},
              factoryFor<FloodingRouting>(FloodingParams{}));
  net.stack->at(0).originate(Bytes(24, 1));
  net.run();
  // Source + 4 relays transmit exactly once each (implosion guard);
  // the gateway consumes without rebroadcasting.
  EXPECT_EQ(net.network.medium().dataFrames(), 5u);
}

TEST(Gossip, RandomWalkReachesGatewayEventually) {
  LineNet net(4, {{80.0, 0.0}},
              factoryFor<GossipRouting>(FloodingParams{}));
  for (int i = 0; i < 10; ++i) net.stack->at(0).originate(Bytes(24, 1));
  net.run(30.0);
  // On a line with a gateway neighbour-preference the walk terminates; most
  // packets make it, a few may exceed the TTL.
  EXPECT_GE(net.network.stats().delivered(), 5u);
}

// --- single sink -------------------------------------------------------------------

TEST(SingleSink, GradientFormsAndRoutes) {
  LineNet net(5, {{-20.0, 0.0}},
              factoryFor<SingleSinkRouting>());
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
              factoryFor<SingleSinkRouting>());
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
                      factoryFor<SingleSinkRouting>());
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
              factoryFor<LeachRouting>([] {
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
  LineNet net(3, {{200.0, 0.0}}, factoryFor<LeachRouting>(params));
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
  LineNet net(2, {{300.0, 0.0}}, factoryFor<LeachRouting>(params));
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
              factoryFor<SprRouting>(sprDefaults()));
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
              factoryFor<SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(5).originate(Bytes(24, 1));
  net.run();
  ASSERT_EQ(net.network.stats().delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.network.stats().hopStats().mean(), 6.0);  // BFS dist
}

TEST(Spr, SecondPacketUsesInstalledTablesWithoutNewQuery) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  net.stack->at(3).originate(Bytes(24, 1));
  net.run();
  const auto rreqsAfterFirst =
      net.network.medium().framesByKind().at(net::PacketKind::kRreq);
  net.stack->at(3).originate(Bytes(24, 2));
  net.run();
  EXPECT_EQ(net.network.medium().framesByKind().at(net::PacketKind::kRreq),
            rreqsAfterFirst);  // no new flood (step 1 table hit)
  EXPECT_EQ(net.network.stats().delivered(), 2u);
}

TEST(Spr, IntermediateAnswersFromCacheSuppressingFlood) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprRouting>(sprDefaults()));
  net.stack->beginRound(0);
  // Node 1 (next to the gateway side) learns a route first.
  net.stack->at(1).originate(Bytes(24, 1));
  net.run();
  const auto rreqsBefore =
      net.network.medium().framesByKind().at(net::PacketKind::kRreq);
  // Node 3's query should be answered by node 2 or 1 from cache — fewer
  // RREQ frames than its own full flood would cost.
  net.stack->at(3).originate(Bytes(24, 2));
  net.run();
  const auto rreqsAfter =
      net.network.medium().framesByKind().at(net::PacketKind::kRreq);
  EXPECT_EQ(net.network.stats().delivered(), 2u);
  EXPECT_LE(rreqsAfter - rreqsBefore, 3u);
}

TEST(Spr, RoundBoundaryInvalidatesRoutes) {
  LineNet net(4, {{-20.0, 0.0}},
              factoryFor<SprRouting>(sprDefaults()));
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
              factoryFor<SprRouting>(sprDefaults()));
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
                factoryFor<MlrRouting>(params),
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

TEST(Mlr, OccupancyIteratesByPlace) {
  MlrNet net(5);
  net.announceInitial();
  using Slots = std::vector<std::pair<std::uint16_t, std::uint16_t>>;
  const auto slots = [&net] {
    Slots out;
    for (const auto& [place, gateway] : net.mlrAt(2).occupancy())
      out.emplace_back(place, gateway);
    return out;
  };
  const auto g0 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  const auto g1 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[1]);
  EXPECT_EQ(slots(), (Slots{{0, g0}, {1, g1}}));

  // Gateway 0 moves to place 2: place 0 frees, place 2 sorts last.
  net.stack->beginRound(1);
  net.network.setGatewayPosition(g0, net.knowledge.feasiblePlaces[2]);
  net.mlrAt(g0).announceMove(2, 0, 1);
  net.run(1.0);
  EXPECT_EQ(slots(), (Slots{{1, g1}, {2, g0}}));

  // Gateway 1 takes place 0: the higher gateway id now iterates first.
  net.stack->beginRound(2);
  net.network.setGatewayPosition(g1, net.knowledge.feasiblePlaces[0]);
  net.mlrAt(g1).announceMove(0, 1, 2);
  net.run(1.0);
  EXPECT_EQ(slots(), (Slots{{0, g1}, {2, g0}}));
  EXPECT_EQ(net.mlrAt(2).occupancy().size(), 2u);
  EXPECT_EQ((*net.mlrAt(2).occupancy().begin()).second, g1);
}

TEST(Mlr, LateRefloodOfAnOlderRoundFindsItsEntry) {
  // A copy of round 0's announcement arriving after round 1's must hit the
  // round-0 dedup entry: nobody re-floods a hop count they already beat.
  MlrNet net(5);
  net.announceInitial();
  const auto g0 = static_cast<std::uint16_t>(net.knowledge.gatewayIds[0]);
  net.stack->beginRound(1);
  net.mlrAt(g0).announceMove(0, 0, 1);
  net.run(1.0);
  const std::uint64_t before = net.network.medium().framesTransmitted();

  GatewayMoveMsg late;
  late.gateway = g0;
  late.newPlace = 0;
  late.round = 0;
  late.hopCount = 4;  // worse than what sensors 0 and 2 advertised
  net::Packet packet;
  packet.kind = net::PacketKind::kGatewayMove;
  packet.hopDst = net::kBroadcastId;
  packet.payload = late.encode();
  net.network.sendFrom(1, packet);
  net.run(1.0);
  EXPECT_EQ(net.network.medium().framesTransmitted(), before + 1)
      << "a neighbour re-flooded an announcement it had already advertised";

  // The same late copy with a better hop count than sensor 4 advertised for
  // place 0 (5 hops) does propagate: the rule is improvement, not novelty.
  late.hopCount = 0;
  packet.payload = late.encode();
  net.network.sendFrom(3, packet);
  net.run(1.0);
  EXPECT_GT(net.network.medium().framesTransmitted(), before + 2);
  EXPECT_EQ(net.mlrAt(4).placeTable()[0].hops, 1);
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
