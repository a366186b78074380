#include "routing/secmlr.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/invariants.hpp"
#include "util/require.hpp"

namespace wmsn::routing {

namespace {

std::uint64_t fwdKey(std::uint16_t source, std::uint16_t gateway) {
  return (static_cast<std::uint64_t>(source) << 16) | gateway;
}

std::uint64_t rreqKey(std::uint16_t source, std::uint16_t gateway,
                      std::uint32_t reqId) {
  return ((static_cast<std::uint64_t>(source) << 16 | gateway) << 32) | reqId;
}

std::uint64_t intervalKey(std::uint16_t gateway, std::uint32_t interval) {
  return (static_cast<std::uint64_t>(gateway) << 32) | interval;
}

std::uint64_t collectKey(std::uint16_t source, std::uint32_t reqId) {
  return (static_cast<std::uint64_t>(source) << 32) | reqId;
}

/// The semantic content of a routing query/response ("req"/"res" in §6.2).
Bytes plainReq() { return Bytes{'r', 'e', 'q', 0, 0, 0, 0, 0}; }
Bytes plainRes() { return Bytes{'r', 'e', 's', 0, 0, 0, 0, 0}; }

constexpr std::size_t kMaxBufferedMovesPerInterval = 32;

}  // namespace

SecMlrKeyring::SecMlrKeyring(SecMlrConfig config)
    : config_(config), keystore_(crypto::KeyStore::fromSeed(config.keySeed)) {}

const std::shared_ptr<const crypto::TeslaChain>& SecMlrKeyring::teslaChain(
    net::NodeId gateway) {
  auto& chain = chains_[gateway];
  if (!chain)
    chain = std::make_shared<const crypto::TeslaChain>(
        keystore_.broadcastSeedKey(gateway), config_.tesla.chainLength);
  return chain;
}

const SecMlrKeyring::PairKey& SecMlrKeyring::pairKey(net::NodeId sensor,
                                                      net::NodeId gateway) {
  const std::uint64_t id = static_cast<std::uint64_t>(sensor) << 32 | gateway;
  auto it = pairKeys_.find(id);
  if (it == pairKeys_.end()) {
    const crypto::Key key = keystore_.pairwiseKey(sensor, gateway);
    it = pairKeys_.emplace(id, PairKey{key, crypto::HmacSha256::Keyed(key)})
             .first;
  }
  return it->second;
}

const crypto::HmacSha256::Keyed& SecMlrKeyring::teslaMacKey(
    const crypto::Key& chainKey) {
  auto it = teslaMacKeys_.find(chainKey);
  if (it == teslaMacKeys_.end())
    it = teslaMacKeys_
             .emplace(chainKey, crypto::HmacSha256::Keyed(
                                    crypto::TeslaChain::macKey(chainKey)))
             .first;
  return it->second;
}

const crypto::Key& SecMlrKeyring::walk(const crypto::Key& key,
                                       std::uint32_t steps) {
  auto [it, fresh] = walks_.try_emplace({key, steps}, key);
  if (fresh)
    for (std::uint32_t i = 0; i < steps; ++i)
      it->second = crypto::TeslaChain::step(it->second);
  return it->second;
}

SecMlrRouting::SecMlrRouting(net::SensorNetwork& network, net::NodeId self,
                             const NetworkKnowledge& knowledge,
                             std::shared_ptr<SecMlrKeyring> keyring,
                             MlrParams mlrParams)
    : MlrRouting(network, self, knowledge, mlrParams),
      keyring_(std::move(keyring)),
      config_(keyring_->config()) {}

void SecMlrRouting::start() {
  // Deployment-time bootstrap: every node (gateways relay floods too) is
  // flashed with each gateway's TESLA commitment K_0 (SPINS assumption).
  for (net::NodeId g : knowledge().gatewayIds) {
    if (g == self()) continue;
    TeslaState state;
    state.gateway = g;
    tesla_[static_cast<std::uint16_t>(g)] = std::move(state);
  }
}

void SecMlrRouting::onRoundStart(std::uint32_t round) {
  MlrRouting::onRoundStart(round);
}

void SecMlrRouting::onTopologyChanged() {
  MlrRouting::onTopologyChanged();
  // Discovered 4-tuple paths may route through now-sleeping relays.
  for (auto& [gw, session] : sessions_) {
    (void)gw;
    session.valid = false;
  }
  forward_.clear();
  moveReflooded_.clear();
}

void SecMlrRouting::chargeCrypto(std::size_t bytes) {
  network().chargeCrypto(self(), bytes);
}

bool SecMlrRouting::hasSessionTo(net::NodeId gateway) const {
  auto it = sessions_.find(static_cast<std::uint16_t>(gateway));
  return it != sessions_.end() && it->second.valid;
}

// --------------------------------------------------------------------------
// TESLA-authenticated gateway move notifications (§6.2.3)
// --------------------------------------------------------------------------

void SecMlrRouting::announceMove(std::uint16_t newPlace,
                                 std::uint16_t prevPlace,
                                 std::uint32_t round) {
  WMSN_REQUIRE_MSG(isGateway(), "announceMove is gateway-side");
  myPlace_ = newPlace;
  if (prevPlace != kNoPlace) occupiedBy_.erase(prevPlace);
  occupiedBy_[newPlace] = static_cast<std::uint16_t>(self());
  placeOfGw_[static_cast<std::uint16_t>(self())] = newPlace;

  // TESLA cannot sign in interval 0 (its key is the public commitment);
  // wait for interval 1 if the simulation is that young.
  const sim::Time earliest =
      config_.tesla.startTime + config_.tesla.intervalDuration;
  if (now() < earliest) {
    const sim::Time delay = earliest - now();
    scheduleAfter(delay, [this, newPlace, prevPlace, round] {
      announceMove(newPlace, prevPlace, round);
    });
    return;
  }

  GatewayMoveMsg move;
  move.gateway = static_cast<std::uint16_t>(self());
  move.newPlace = newPlace;
  move.prevPlace = prevPlace;
  move.round = round;
  move.hopCount = 0;  // flood metadata lives in SecMoveMsg, not the payload
  const Bytes payload = move.encode();

  if (!broadcaster_)
    broadcaster_.emplace(keyring_->teslaChain(self()), config_.tesla);
  const auto signedMsg = broadcaster_->sign(payload, now());
  chargeCrypto(payload.size() + crypto::kPacketMacSize);

  SecMoveMsg wire;
  wire.gateway = move.gateway;
  wire.teslaPayload = payload;
  wire.interval = signedMsg.interval;
  wire.mac = signedMsg.mac;
  wire.hopCount = 0;
  sendBroadcast(makePacket(net::PacketKind::kGatewayMove, net::kBroadcastId,
                           wire.encode()));

  // Publish K_interval once interval + d begins.
  const sim::Time discloseAt =
      config_.tesla.startTime +
      sim::Time{config_.tesla.intervalDuration.us *
                (signedMsg.interval + config_.tesla.disclosureDelay)} +
      sim::Time::milliseconds(1);
  const std::uint32_t interval = signedMsg.interval;
  const sim::Time delay =
      discloseAt > now() ? discloseAt - now() : sim::Time::zero();
  scheduleAfter(delay, [this, interval] {
    KeyDiscloseMsg msg;
    msg.gateway = static_cast<std::uint16_t>(self());
    msg.interval = interval;
    msg.key = broadcaster_->chainKey(interval);
    sendBroadcast(makePacket(net::PacketKind::kKeyDisclose, net::kBroadcastId,
                             msg.encode()));
  });
}

void SecMlrRouting::handleSecMove(const net::Packet& packet,
                                  net::NodeId from) {
  const SecMoveMsg msg = SecMoveMsg::decode(packet.payload);
  if (msg.gateway == self()) return;

  auto state = tesla_.find(msg.gateway);
  if (state == tesla_.end()) {
    // Unknown broadcaster (gateways relay but hold commitments too; a truly
    // unknown id is bogus).
    ++rejectedTesla_;
    WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kReject, now().us, 0,
               static_cast<std::uint32_t>(self()), msg.gateway,
               obs::TraceDropReason::kTesla);
    return;
  }

  // TESLA security condition: drop if the signing key could already be
  // public on arrival.
  const std::uint32_t arrivalInterval = static_cast<std::uint32_t>(
      (now() - config_.tesla.startTime).us / config_.tesla.intervalDuration.us);
  if (msg.interval <= state->second.verifiedInterval ||
      arrivalInterval >= msg.interval + config_.tesla.disclosureDelay) {
    ++rejectedTesla_;
    return;
  }

  auto& bucket = state->second.pending[msg.interval];
  if (bucket.size() < kMaxBufferedMovesPerInterval) {
    BufferedMove buf;
    buf.teslaPayload = msg.teslaPayload;
    buf.mac = msg.mac;
    buf.hops = msg.hopCount;
    buf.from = from;
    bucket.push_back(std::move(buf));
  }

  // Gateways buffer (for occupancy) but never relay the route-building
  // flood — same reasoning as plain MLR: sinks must not enter BFS trees.
  if (isGateway()) return;

  // Re-flood first-seen or improved copies so the announcement reaches the
  // whole network before the key does.
  const std::uint64_t key = intervalKey(msg.gateway, msg.interval);
  const std::uint16_t mine = static_cast<std::uint16_t>(msg.hopCount + 1);
  auto it = moveReflooded_.find(key);
  if (it != moveReflooded_.end() && it->second <= mine) return;
  moveReflooded_[key] = mine;

  SecMoveMsg rebroadcast = msg;
  rebroadcast.hopCount = mine;
  sendBroadcastJittered(makePacket(net::PacketKind::kGatewayMove,
                                   net::kBroadcastId, rebroadcast.encode()));
}

void SecMlrRouting::handleKeyDisclose(const net::Packet& packet) {
  const KeyDiscloseMsg msg = KeyDiscloseMsg::decode(packet.payload);
  if (msg.gateway == self()) return;

  const bool firstSeen =
      seenDisclose_.insert(intervalKey(msg.gateway, msg.interval)).second;

  auto stateIt = tesla_.find(msg.gateway);
  if (stateIt != tesla_.end()) {
    TeslaState& state = stateIt->second;
    if (msg.interval > state.verifiedInterval &&
        msg.interval - state.verifiedInterval <=
            config_.tesla.chainLength) {
      // Walk the disclosed key back to the last verified chain element.
      const std::uint32_t steps = msg.interval - state.verifiedInterval;
      const crypto::Key& walked = keyring_->walk(msg.key, steps);
      chargeCrypto(static_cast<std::size_t>(steps) * sizeof(crypto::Key));
      const crypto::Key& lastVerified =
          state.verifiedInterval == 0
              ? keyring_->teslaChain(state.gateway)->commitment()
              : state.lastVerifiedKey;

      if (constantTimeEqual(walked, lastVerified)) {
        const crypto::HmacSha256::Keyed& mk = keyring_->teslaMacKey(msg.key);
        auto bucket = state.pending.find(msg.interval);
        if (bucket != state.pending.end()) {
          // Copies of one announcement carry one payload: its tag is
          // computed once, and every copy is still charged.
          const std::vector<BufferedMove>& copies = bucket->second;
          std::array<crypto::PacketMac, kMaxBufferedMovesPerInterval> expected;
          for (std::size_t i = 0; i < copies.size(); ++i) {
            const BufferedMove& buf = copies[i];
            chargeCrypto(buf.teslaPayload.size());
            std::size_t same = 0;
            while (copies[same].teslaPayload != buf.teslaPayload) ++same;
            expected[i] = same < i ? expected[same]
                                   : crypto::packetMac(mk, msg.interval,
                                                       buf.teslaPayload);
            if (!constantTimeEqual(expected[i], buf.mac)) {
              ++rejectedTesla_;  // forged announcement dies here
              continue;
            }
            GatewayMoveMsg move = GatewayMoveMsg::decode(buf.teslaPayload);
            move.hopCount = buf.hops;
            applyMove(move, buf.from, /*reflood=*/false);
            invalidateSessionsTo(move.gateway);
          }
        }
        // Older intervals can never be verified now — drop them.
        state.pending.erase(state.pending.begin(),
                            state.pending.upper_bound(msg.interval));
        state.lastVerifiedKey = msg.key;
        state.verifiedInterval = msg.interval;
      } else {
        ++rejectedTesla_;  // key does not belong to the chain
      }
    }
  }

  if (firstSeen) {
    sendBroadcastJittered(makePacket(net::PacketKind::kKeyDisclose,
                                     net::kBroadcastId, packet.payload));
  }
}

// --------------------------------------------------------------------------
// Secure route discovery (§6.2.1 / §6.2.2)
// --------------------------------------------------------------------------

void SecMlrRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  const std::uint64_t uid = registerGenerated();

  const auto gw = pickSessionGateway();
  if (gw) {
    sendSecData(uid, std::move(appPayload), *gw);
    return;
  }
  if (occupiedBy_.empty()) return;  // nothing to query yet — undelivered
  dataQueue_.emplace_back(uid, std::move(appPayload));
  if (!queryInFlight_) {
    queryRetries_ = 0;
    startQuery();
  }
}

std::optional<std::uint16_t> SecMlrRouting::pickSessionGateway() {
  std::optional<std::uint16_t> best;
  std::uint16_t bestHops = std::numeric_limits<std::uint16_t>::max();
  for (auto& [gw, session] : sessions_) {
    if (!session.valid) continue;
    // The session must still point at the gateway's current place.
    auto place = placeOfGw_.find(gw);
    if (place == placeOfGw_.end() || place->second != session.place) {
      session.valid = false;
      continue;
    }
    if (session.pathHops < bestHops) {
      bestHops = session.pathHops;
      best = gw;
    }
  }
  WMSN_INVARIANT_MSG(
      !best || inv::sessionConsistent(
                   sessions_.at(*best).valid,
                   sessions_.at(*best).nextHop != net::kNoNode,
                   sessions_.at(*best).place != kNoPlace,
                   sessions_.at(*best).pathHops,
                   placeOfGw_.at(*best) == sessions_.at(*best).place),
      "SecMLR §6.2.4: the selected session must point at its gateway's "
      "current place");
  return best;
}

void SecMlrRouting::invalidateSessionsTo(std::uint16_t gateway) {
  auto it = sessions_.find(gateway);
  if (it != sessions_.end()) it->second.valid = false;
}

void SecMlrRouting::onGatewayPresumedDown(std::uint16_t gateway) {
  invalidateSessionsTo(gateway);
  // Forwarding state toward a dead gateway only misroutes packets into the
  // void; clearing it makes the next query rebuild through live paths.
  std::erase_if(forward_, [gateway](const auto& kv) {
    return static_cast<std::uint16_t>(kv.first & 0xffff) == gateway;
  });
  WMSN_INVARIANT_MSG(
      !hasSessionTo(gateway) &&
          std::none_of(forward_.begin(), forward_.end(),
                       [gateway](const auto& kv) {
                         return static_cast<std::uint16_t>(kv.first & 0xffff) ==
                                gateway;
                       }),
      "SecMLR: a presumed-down gateway keeps no usable session and no "
      "forwarding entries");
}

void SecMlrRouting::startQuery() {
  queryInFlight_ = true;
  ++queriesStarted_;
  ++reqId_;

  // One MAC'd query per targeted gateway (each pair (S_i, G_j) shares a
  // distinct key). The first attempt targets only the gateway at the
  // min-hop occupied place — the place table already tells us who will win
  // step 4 — so the network carries one flood instead of m. A retry falls
  // back to the paper's literal "m destinations" broadcast.
  std::vector<std::uint16_t> targets;
  if (queryRetries_ == 0) {
    if (const auto place = selectedPlace())
      targets.push_back(occupiedBy_.at(*place));
  }
  if (targets.empty())
    for (const auto& [place, gw] : occupiedBy_) {
      (void)place;
      targets.push_back(gw);
    }

  for (std::uint16_t gw : targets) {
    SecRreqMsg msg;
    msg.source = static_cast<std::uint16_t>(self());
    msg.gateway = gw;
    msg.reqId = reqId_;
    msg.counter = counterTo_[gw].next();
    const auto& key = keyring_->pairKey(msg.source, gw);
    msg.encReq = crypto::SpeckCtr(key.key).encrypt(msg.counter, plainReq());
    msg.path.push_back(msg.source);
    const Bytes macInput = msg.macInput();
    msg.mac = crypto::packetMac(key.hmac, msg.counter, macInput);
    chargeCrypto(macInput.size() + msg.encReq.size());

    seenSecRreq_.insert(rreqKey(msg.source, gw, reqId_));
    sendBroadcast(makePacket(net::PacketKind::kRreq, net::kBroadcastId,
                             msg.encode()));
  }

  const std::uint32_t expectReq = reqId_;
  scheduleAfter(config_.responseWindow, [this, expectReq] {
    if (!queryInFlight_ || reqId_ != expectReq) return;
    finishQuery();
  });
}

void SecMlrRouting::finishQuery() {
  queryInFlight_ = false;
  const auto gw = pickSessionGateway();
  if (!gw) {
    if (queryRetries_ < config_.maxQueryRetries && !occupiedBy_.empty()) {
      ++queryRetries_;
      if (params_.failover) {
        // Bounded exponential backoff before re-flooding: the last flood
        // just died in the same outage an immediate retry would re-enter.
        // queryInFlight_ stays up so new readings queue instead of racing a
        // second discovery.
        queryInFlight_ = true;
        const std::uint32_t shift = std::min(queryRetries_ - 1, 5u);
        const std::uint32_t expectReq = reqId_;
        scheduleAfter(sim::Time{config_.collectWindow.us << shift},
                      [this, expectReq] {
                        if (reqId_ != expectReq) return;
                        startQuery();
                      });
      } else {
        startQuery();
      }
    } else {
      ++queriesFailed_;
      dataQueue_.clear();  // undeliverable this round — shows in PDR
    }
    return;
  }
  auto queue = std::move(dataQueue_);
  dataQueue_.clear();
  for (auto& [uid, reading] : queue) sendSecData(uid, std::move(reading), *gw);
}

void SecMlrRouting::handleSecRreq(const net::Packet& packet,
                                  net::NodeId /*from*/) {
  // A relay drops a copy of a query it has already forwarded before
  // decoding it. Every check ahead of the seenSecRreq_ insert below returns
  // without a side effect, so a seen (source, gateway, reqId) ends in a
  // return either way. Gateways never insert: they collect every copy.
  if (!isGateway()) {
    const auto id = SecRreqMsg::peekId(packet.payload);
    if (id && seenSecRreq_.contains(rreqKey(id->source, id->gateway,
                                            id->reqId)))
      return;
  }
  SecRreqMsg msg = SecRreqMsg::decode(packet.payload);
  if (msg.source == self()) return;
  if (msg.path.empty() || msg.path.front() != msg.source) return;
  if (!pathIsSimple(msg.path)) return;
  if (std::find(msg.path.begin(), msg.path.end(),
                static_cast<std::uint16_t>(self())) != msg.path.end())
    return;

  if (isGateway() && msg.gateway == self()) {
    // §6.2.2: verify origin authenticity and freshness, then collect path
    // copies for a timeout before answering.
    const Bytes macInput = msg.macInput();
    chargeCrypto(macInput.size());
    const auto& key = keyring_->pairKey(msg.source, msg.gateway);
    if (!crypto::verifyPacketMac(key.hmac, msg.counter, macInput, msg.mac)) {
      ++rejectedMacs_;
      return;
    }
    if (msg.counter <= sensorWindow_[msg.source].last()) {
      ++rejectedReplays_;
      return;
    }
    const std::uint64_t ck = collectKey(msg.source, msg.reqId);
    auto [it, first] = collecting_.try_emplace(ck);
    it->second.counter = msg.counter;
    it->second.paths.push_back(msg.path);
    if (first) {
      const std::uint16_t source = msg.source;
      const std::uint32_t reqId = msg.reqId;
      scheduleAfter(config_.collectWindow,
                    [this, source, reqId] { replyToQuery(source, reqId); });
    }
    return;
  }

  // Relay: re-flood the first copy with ourselves appended. Gateways never
  // relay queries addressed to other gateways — a discovered path through a
  // mobile sink would break when it moves, and gateways do not forward data.
  if (isGateway()) return;
  if (!seenSecRreq_.insert(rreqKey(msg.source, msg.gateway, msg.reqId)).second)
    return;
  if (msg.path.size() >= config_.maxPathLength) return;
  msg.path.push_back(static_cast<std::uint16_t>(self()));
  sendBroadcastJittered(makePacket(net::PacketKind::kRreq, net::kBroadcastId,
                                   msg.encode()));
}

void SecMlrRouting::replyToQuery(std::uint16_t source, std::uint32_t reqId) {
  auto it = collecting_.find(collectKey(source, reqId));
  if (it == collecting_.end()) return;
  Collect collect = std::move(it->second);
  collecting_.erase(it);
  if (collect.paths.empty()) return;

  // Consume the query's counter now that it is being answered.
  if (!sensorWindow_[source].acceptAndAdvance(collect.counter)) {
    ++rejectedReplays_;
    return;
  }

  // path_ij = Min(|path_ij(k)|) over collected copies.
  const Path* best = &collect.paths.front();
  for (const Path& p : collect.paths)
    if (p.size() < best->size()) best = &p;

  SecRresMsg res;
  res.source = source;
  res.gateway = static_cast<std::uint16_t>(self());
  res.place = myPlace_;
  res.reqId = reqId;
  res.counter = toSensorCounter_[source].next();
  const auto& key = keyring_->pairKey(source, res.gateway);
  res.encRes = crypto::SpeckCtr(key.key).encrypt(res.counter, plainRes());
  res.path = *best;
  res.path.push_back(res.gateway);
  res.cursor = static_cast<std::uint16_t>(res.path.size() - 2);
  const Bytes macInput = res.macInput();
  res.mac = crypto::packetMac(key.hmac, res.counter, macInput);
  chargeCrypto(macInput.size() + res.encRes.size());

  sendUnicast(res.path[res.cursor],
              makePacket(net::PacketKind::kRres, res.path[res.cursor],
                         res.encode()));
}

void SecMlrRouting::handleSecRres(const net::Packet& packet,
                                  net::NodeId /*from*/) {
  SecRresMsg msg = SecRresMsg::decode(packet.payload);
  if (msg.path.size() < 2 || msg.cursor >= msg.path.size()) return;
  if (msg.path[msg.cursor] != self()) return;
  if (!pathIsSimple(msg.path)) return;

  if (msg.cursor == 0) {
    // Back at the source: authenticate the gateway's answer.
    if (msg.source != self()) return;
    const Bytes macInput = msg.macInput();
    chargeCrypto(macInput.size());
    const auto& key = keyring_->pairKey(msg.source, msg.gateway);
    if (!crypto::verifyPacketMac(key.hmac, msg.counter, macInput, msg.mac)) {
      ++rejectedMacs_;
      return;
    }
    if (!counterFrom_[msg.gateway].acceptAndAdvance(msg.counter)) {
      ++rejectedReplays_;
      return;
    }
    Session session;
    session.valid = true;
    session.nextHop = msg.path[1];
    session.place = msg.place;
    session.pathHops = static_cast<std::uint16_t>(msg.path.size() - 1);
    WMSN_INVARIANT_MSG(
        inv::sessionConsistent(session.valid, session.nextHop != net::kNoNode,
                               session.place != kNoPlace, session.pathHops,
                               /*placeMatchesGateway=*/true),
        "SecMLR §6.2.4: an installed session carries a real next hop, a real "
        "place, and at least one hop");
    sessions_[msg.gateway] = session;
    return;
  }

  // Intermediate node: install the 4-tuple forwarding entry (§6.2.4) —
  // (source, destination, immediate sender, immediate receiver) — and pass
  // the response one hop closer to the source.
  ForwardEntry entry;
  entry.immediateSender = msg.path[msg.cursor - 1];
  entry.immediateReceiver = msg.path[msg.cursor + 1];
  forward_[fwdKey(msg.source, msg.gateway)] = entry;

  msg.cursor -= 1;
  sendUnicast(msg.path[msg.cursor],
              makePacket(net::PacketKind::kRres, msg.path[msg.cursor],
                         msg.encode()));
}

// --------------------------------------------------------------------------
// Data forwarding (§6.2.4)
// --------------------------------------------------------------------------

void SecMlrRouting::sendSecData(std::uint64_t uid, Bytes reading,
                                std::uint16_t gateway) {
  auto it = sessions_.find(gateway);
  if (it == sessions_.end() || !it->second.valid) return;

  SecDataMsg msg;
  msg.source = static_cast<std::uint16_t>(self());
  msg.gateway = gateway;
  msg.immediateSender = static_cast<std::uint16_t>(self());
  msg.immediateReceiver = static_cast<std::uint16_t>(it->second.nextHop);
  msg.dataSeq = ++dataSeq_;
  msg.counter = counterTo_[gateway].next();
  const auto& key = keyring_->pairKey(msg.source, gateway);
  msg.encData = crypto::SpeckCtr(key.key).encrypt(msg.counter, reading);
  const Bytes macInput = msg.macInput();
  msg.mac = crypto::packetMac(key.hmac, msg.counter, macInput);
  chargeCrypto(macInput.size() + reading.size());

  net::Packet pkt = makePacket(net::PacketKind::kData, it->second.nextHop,
                               msg.encode());
  pkt.uid = uid;
  pkt.seq = msg.dataSeq;
  pkt.finalDst = gateway;
  sendUnicast(it->second.nextHop, std::move(pkt));
}

void SecMlrRouting::handleSecData(const net::Packet& packet,
                                  net::NodeId from) {
  SecDataMsg msg = SecDataMsg::decode(packet.payload);
  if (msg.immediateReceiver != self()) return;

  if (isGateway()) {
    if (msg.gateway != self()) return;
    const auto& key = keyring_->pairKey(msg.source, msg.gateway);
    const Bytes macInput = msg.macInput();
    chargeCrypto(macInput.size() + msg.encData.size());
    if (!crypto::verifyPacketMac(key.hmac, msg.counter, macInput, msg.mac)) {
      ++rejectedMacs_;
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kReject, now().us,
                 packet.uid, static_cast<std::uint32_t>(self()),
                 msg.source, obs::TraceDropReason::kAuthMac, packet.hops);
      return;
    }
    if (!sensorWindow_[msg.source].acceptAndAdvance(msg.counter)) {
      ++rejectedReplays_;  // replayed data dies at the gateway
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kReject, now().us,
                 packet.uid, static_cast<std::uint32_t>(self()),
                 msg.source, obs::TraceDropReason::kReplay, packet.hops);
      return;
    }
    const Bytes reading =
        crypto::SpeckCtr(key.key).decrypt(msg.counter, msg.encData);
    (void)reading;  // content consumed by the application layer
    reportDelivered(packet.uid, msg.source, packet.hops + 1u);
    return;
  }

  // Forwarder: match the 4-tuple entry; rewrite IS/IR (§6.2.4). No crypto —
  // intermediate sensors spend no CPU on security.
  auto it = forward_.find(fwdKey(msg.source, msg.gateway));
  if (it == forward_.end()) return;
  if (it->second.immediateSender != from) return;  // off-path injection

  msg.immediateSender = static_cast<std::uint16_t>(self());
  msg.immediateReceiver =
      static_cast<std::uint16_t>(it->second.immediateReceiver);

  net::Packet fwd = makePacket(net::PacketKind::kData,
                               it->second.immediateReceiver, msg.encode());
  fwd.uid = packet.uid;
  fwd.origin = packet.origin;
  fwd.seq = packet.seq;
  fwd.finalDst = msg.gateway;
  fwd.hops = static_cast<std::uint8_t>(packet.hops + 1);
  sendUnicast(it->second.immediateReceiver, std::move(fwd));
}

// --------------------------------------------------------------------------
// Secure downstream commands (§5.1's gateway→sensor direction)
// --------------------------------------------------------------------------

std::uint32_t SecMlrRouting::sendCommand(net::NodeId target, Bytes body) {
  WMSN_REQUIRE_MSG(isGateway(), "commands originate at gateways");
  const auto targetId = static_cast<std::uint16_t>(target);
  const std::uint64_t counter = toSensorCounter_[targetId].next();
  const auto& key =
      keyring_->pairKey(targetId, static_cast<std::uint16_t>(self()));
  Bytes enc = crypto::SpeckCtr(key.key).encrypt(counter, body);
  const crypto::PacketMac mac = crypto::packetMac(key.hmac, counter, enc);
  chargeCrypto(body.size() + enc.size());

  ByteWriter sealed;
  sealed.u64(counter);
  sealed.bytes(enc);
  sealed.raw(std::span<const std::uint8_t>(mac.data(), mac.size()));
  return MlrRouting::sendCommand(target, sealed.take());
}

void SecMlrRouting::handleCommand(const net::Packet& packet) {
  const CommandMsg msg = CommandMsg::decode(packet.payload);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(msg.gateway) << 32) | msg.commandSeq;
  if (!seenCommands_.insert(key).second) return;
  if (msg.target == self()) {
    // Unseal: counter(8) + length-prefixed ciphertext + mac(8).
    ByteReader r(msg.body);
    const std::uint64_t counter = r.u64();
    const Bytes enc = r.bytes();
    const Bytes macRaw = r.raw(crypto::kPacketMacSize);
    crypto::PacketMac mac{};
    std::copy(macRaw.begin(), macRaw.end(), mac.begin());

    const auto& pk =
        keyring_->pairKey(static_cast<std::uint16_t>(self()), msg.gateway);
    chargeCrypto(enc.size() * 2);
    if (!crypto::verifyPacketMac(pk.hmac, counter, enc, mac)) {
      ++rejectedMacs_;  // forged command — an attacker cannot steer sensors
      return;
    }
    if (!counterFrom_[msg.gateway].acceptAndAdvance(counter)) {
      ++rejectedReplays_;
      return;
    }
    CommandMsg plain = msg;
    plain.body = crypto::SpeckCtr(pk.key).decrypt(counter, enc);
    acceptCommand(plain);
    return;
  }
  if (isGateway()) return;
  net::Packet copy = packet;
  copy.hops = static_cast<std::uint8_t>(packet.hops + 1);
  sendBroadcastJittered(std::move(copy));
}

// --------------------------------------------------------------------------

void SecMlrRouting::onReceive(const net::Packet& packet, net::NodeId from) {
  switch (packet.kind) {
    case net::PacketKind::kGatewayMove:
      handleSecMove(packet, from);
      return;
    case net::PacketKind::kKeyDisclose:
      handleKeyDisclose(packet);
      return;
    case net::PacketKind::kRreq:
      handleSecRreq(packet, from);
      return;
    case net::PacketKind::kRres:
      handleSecRres(packet, from);
      return;
    case net::PacketKind::kData:
      handleSecData(packet, from);
      return;
    case net::PacketKind::kCommand:
      handleCommand(packet);
      return;
    case net::PacketKind::kLoadAdvisory:
      // Advisories are soft hints (they bias place selection by a few
      // hops); a forged one degrades efficiency, never correctness, so the
      // plain handler suffices. TESLA-protecting them would cost a full
      // buffered-disclosure cycle per advisory.
      handleLoadAdvisory(packet);
      return;
    default:
      return;
  }
}

}  // namespace wmsn::routing
