#include "routing/messages.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace wmsn::routing {

namespace {

void writeMac(ByteWriter& w, const crypto::PacketMac& mac) {
  w.raw(std::span<const std::uint8_t>(mac.data(), mac.size()));
}

crypto::PacketMac readMac(ByteReader& r) {
  const Bytes raw = r.raw(crypto::kPacketMacSize);
  crypto::PacketMac mac{};
  std::copy(raw.begin(), raw.end(), mac.begin());
  return mac;
}

void writeKey(ByteWriter& w, const crypto::Key& key) {
  w.raw(std::span<const std::uint8_t>(key.data(), key.size()));
}

crypto::Key readKey(ByteReader& r) {
  const Bytes raw = r.raw(sizeof(crypto::Key));
  crypto::Key key{};
  std::copy(raw.begin(), raw.end(), key.begin());
  return key;
}

}  // namespace

void encodePath(ByteWriter& w, const Path& path) {
  WMSN_REQUIRE_MSG(path.size() <= 0xff, "path too long to encode");
  w.u8(static_cast<std::uint8_t>(path.size()));
  for (std::uint16_t hop : path) w.u16(hop);
}

Path decodePath(ByteReader& r) {
  const std::size_t n = r.u8();
  Path path;
  path.reserve(n);
  for (std::size_t i = 0; i < n; ++i) path.push_back(r.u16());
  return path;
}

bool pathIsSimple(const Path& path) {
  // Paths are a few dozen hops at most (an encoded path holds <= 255), so a
  // quadratic scan is cheap and, unlike a hash set, allocates nothing.
  for (auto hop = path.begin(); hop != path.end(); ++hop)
    if (std::find(path.begin(), hop, *hop) != hop) return false;
  return true;
}

// --- SPR --------------------------------------------------------------------

Bytes RreqMsg::encode() const {
  ByteWriter w;
  w.u32(reqId);
  w.u16(targetGateway);
  encodePath(w, path);
  return w.take();
}

RreqMsg RreqMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  RreqMsg m;
  m.reqId = r.u32();
  m.targetGateway = r.u16();
  m.path = decodePath(r);
  return m;
}

Bytes RresMsg::encode() const {
  ByteWriter w;
  w.u32(reqId);
  w.u16(gateway);
  w.u16(place);
  encodePath(w, path);
  w.u16(cursor);
  return w.take();
}

RresMsg RresMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  RresMsg m;
  m.reqId = r.u32();
  m.gateway = r.u16();
  m.place = r.u16();
  m.path = decodePath(r);
  m.cursor = r.u16();
  return m;
}

Bytes DataMsg::encode() const {
  ByteWriter w;
  w.u16(source);
  w.u16(gateway);
  w.u16(place);
  w.u32(dataSeq);
  encodePath(w, route);
  w.u16(cursor);
  w.bytes(reading);
  return w.take();
}

DataMsg DataMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  DataMsg m;
  m.source = r.u16();
  m.gateway = r.u16();
  m.place = r.u16();
  m.dataSeq = r.u32();
  m.route = decodePath(r);
  m.cursor = r.u16();
  m.reading = r.bytes();
  return m;
}

// --- MLR --------------------------------------------------------------------

Bytes GatewayMoveMsg::encode() const {
  ByteWriter w;
  w.u16(gateway);
  w.u16(newPlace);
  w.u16(prevPlace);
  w.u32(round);
  w.u16(hopCount);
  return w.take();
}

GatewayMoveMsg GatewayMoveMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  GatewayMoveMsg m;
  m.gateway = r.u16();
  m.newPlace = r.u16();
  m.prevPlace = r.u16();
  m.round = r.u32();
  m.hopCount = r.u16();
  return m;
}

Bytes LoadAdvisoryMsg::encode() const {
  ByteWriter w;
  w.u16(gateway);
  w.u16(place);
  w.u32(round);
  w.u16(loadPermille);
  w.u16(hopCount);
  return w.take();
}

LoadAdvisoryMsg LoadAdvisoryMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  LoadAdvisoryMsg m;
  m.gateway = r.u16();
  m.place = r.u16();
  m.round = r.u32();
  m.loadPermille = r.u16();
  m.hopCount = r.u16();
  return m;
}

Bytes CommandMsg::encode() const {
  ByteWriter w;
  w.u16(gateway);
  w.u16(target);
  w.u32(commandSeq);
  w.bytes(body);
  return w.take();
}

CommandMsg CommandMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  CommandMsg m;
  m.gateway = r.u16();
  m.target = r.u16();
  m.commandSeq = r.u32();
  m.body = r.bytes();
  return m;
}

// --- single-sink baseline -----------------------------------------------------

Bytes CostBeaconMsg::encode() const {
  ByteWriter w;
  w.u16(sink);
  w.u16(cost);
  w.u32(epoch);
  return w.take();
}

CostBeaconMsg CostBeaconMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  CostBeaconMsg m;
  m.sink = r.u16();
  m.cost = r.u16();
  m.epoch = r.u32();
  return m;
}

// --- LEACH --------------------------------------------------------------------

Bytes ChAdvertMsg::encode() const {
  ByteWriter w;
  w.u32(round);
  return w.take();
}

ChAdvertMsg ChAdvertMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  ChAdvertMsg m;
  m.round = r.u32();
  return m;
}

Bytes ChJoinMsg::encode() const {
  ByteWriter w;
  w.u32(round);
  return w.take();
}

ChJoinMsg ChJoinMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  ChJoinMsg m;
  m.round = r.u32();
  return m;
}

Bytes AggregateMsg::encode() const {
  ByteWriter w;
  WMSN_REQUIRE(entries.size() <= 0xffff);
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const Entry& e : entries) {
    w.u64(e.uid);
    w.u16(e.origin);
    w.u8(e.hops);
  }
  return w.take();
}

AggregateMsg AggregateMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  AggregateMsg m;
  const std::size_t n = r.u16();
  m.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Entry e;
    e.uid = r.u64();
    e.origin = r.u16();
    e.hops = r.u8();
    m.entries.push_back(e);
  }
  return m;
}

// --- SecMLR -------------------------------------------------------------------

Bytes SecRreqMsg::macInput() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(net::PacketKind::kRreq));
  w.u16(source);
  w.u16(gateway);
  w.u32(reqId);
  w.u64(counter);
  w.bytes(encReq);
  return w.take();
}

Bytes SecRreqMsg::encode() const {
  ByteWriter w;
  w.u16(source);
  w.u16(gateway);
  w.u32(reqId);
  w.u64(counter);
  w.bytes(encReq);
  encodePath(w, path);
  writeMac(w, mac);
  return w.take();
}

std::optional<SecRreqMsg::Id> SecRreqMsg::peekId(const Bytes& payload) {
  if (payload.size() < 8) return std::nullopt;
  ByteReader r(payload);
  Id id;
  id.source = r.u16();
  id.gateway = r.u16();
  id.reqId = r.u32();
  return id;
}

SecRreqMsg SecRreqMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  SecRreqMsg m;
  m.source = r.u16();
  m.gateway = r.u16();
  m.reqId = r.u32();
  m.counter = r.u64();
  m.encReq = r.bytes();
  m.path = decodePath(r);
  m.mac = readMac(r);
  return m;
}

Bytes SecRresMsg::macInput() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(net::PacketKind::kRres));
  w.u16(source);
  w.u16(gateway);
  w.u16(place);
  w.u32(reqId);
  w.u64(counter);
  w.bytes(encRes);
  encodePath(w, path);  // the chosen path is gateway-asserted → MAC'd
  return w.take();
}

Bytes SecRresMsg::encode() const {
  ByteWriter w;
  w.u16(source);
  w.u16(gateway);
  w.u16(place);
  w.u32(reqId);
  w.u64(counter);
  w.bytes(encRes);
  encodePath(w, path);
  w.u16(cursor);
  writeMac(w, mac);
  return w.take();
}

SecRresMsg SecRresMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  SecRresMsg m;
  m.source = r.u16();
  m.gateway = r.u16();
  m.place = r.u16();
  m.reqId = r.u32();
  m.counter = r.u64();
  m.encRes = r.bytes();
  m.path = decodePath(r);
  m.cursor = r.u16();
  m.mac = readMac(r);
  return m;
}

Bytes SecDataMsg::macInput() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(net::PacketKind::kData));
  w.u16(source);
  w.u16(gateway);
  w.u32(dataSeq);
  w.u64(counter);
  w.bytes(encData);
  return w.take();
}

Bytes SecDataMsg::encode() const {
  ByteWriter w;
  w.u16(source);
  w.u16(gateway);
  w.u16(immediateSender);
  w.u16(immediateReceiver);
  w.u32(dataSeq);
  w.u64(counter);
  w.bytes(encData);
  writeMac(w, mac);
  return w.take();
}

SecDataMsg SecDataMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  SecDataMsg m;
  m.source = r.u16();
  m.gateway = r.u16();
  m.immediateSender = r.u16();
  m.immediateReceiver = r.u16();
  m.dataSeq = r.u32();
  m.counter = r.u64();
  m.encData = r.bytes();
  m.mac = readMac(r);
  return m;
}

Bytes SecMoveMsg::encode() const {
  ByteWriter w;
  w.u16(gateway);
  w.bytes(teslaPayload);
  w.u32(interval);
  writeMac(w, mac);
  w.u16(hopCount);
  return w.take();
}

SecMoveMsg SecMoveMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  SecMoveMsg m;
  m.gateway = r.u16();
  m.teslaPayload = r.bytes();
  m.interval = r.u32();
  m.mac = readMac(r);
  m.hopCount = r.u16();
  return m;
}

Bytes KeyDiscloseMsg::encode() const {
  ByteWriter w;
  w.u16(gateway);
  w.u32(interval);
  writeKey(w, key);
  return w.take();
}

KeyDiscloseMsg KeyDiscloseMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  KeyDiscloseMsg m;
  m.gateway = r.u16();
  m.interval = r.u32();
  m.key = readKey(r);
  return m;
}

Bytes AckMsg::encode() const {
  ByteWriter w;
  w.u64(uid);
  return w.take();
}

AckMsg AckMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  AckMsg m;
  m.uid = r.u64();
  return m;
}

}  // namespace wmsn::routing
