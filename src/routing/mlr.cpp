#include "routing/mlr.hpp"

#include <algorithm>
#include <limits>

#include "obs/perf_stats.hpp"
#include "obs/profiler.hpp"
#include "util/invariants.hpp"
#include "util/require.hpp"

namespace wmsn::routing {

namespace {
std::uint64_t advertKey(std::uint16_t gateway, std::uint32_t round) {
  return (static_cast<std::uint64_t>(gateway) << 32) | round;
}
}  // namespace

std::uint16_t PlaceOccupancy::at(std::uint16_t place) const {
  WMSN_REQUIRE_MSG(contains(place), "place is not occupied");
  return static_cast<std::uint16_t>(slots_[place]);
}

void PlaceOccupancy::set(std::uint16_t place, std::uint16_t gateway) {
  WMSN_REQUIRE(place < slots_.size());
  if (slots_[place] == kFree) ++count_;
  slots_[place] = gateway;
}

void PlaceOccupancy::erase(std::uint16_t place) {
  if (!contains(place)) return;
  slots_[place] = kFree;
  --count_;
}

void PlaceOccupancy::clear() {
  slots_.assign(slots_.size(), kFree);
  count_ = 0;
}

MlrRouting::MlrRouting(net::SensorNetwork& network, net::NodeId self,
                       const NetworkKnowledge& knowledge, MlrParams params)
    : RoutingProtocol(network, self, knowledge),
      params_(params),
      table_(knowledge.feasiblePlaces.size()),
      occupiedBy_(knowledge.feasiblePlaces.size()) {}

void MlrRouting::onRoundStart(std::uint32_t round) {
  WMSN_INVARIANT_MSG(
      table_.size() == knowledge().feasiblePlaces.size(),
      "MLR §5.3: the routing table has exactly one slot per feasible place");
  round_ = round;
  pendingAcks_.clear();
  if (isGateway()) {
    // The active-set scheduler skips this node entirely while it is
    // crashed, so after recovery the load counter may still hold the count
    // from the pre-crash round. A round-number gap means exactly that:
    // discard the stale count instead of advising on it.
    if (round != lastGatewayRound_ + 1) dataReceivedThisRound_ = 0;
    lastGatewayRound_ = round;
    maybeAdviseLoad(round);
    dataReceivedThisRound_ = 0;
  }
  if (params_.rebuildEveryRound) {
    // Conventional table-driven behaviour — the ablation MLR improves on.
    table_.assign(table_.size(), PlaceEntry{});
    occupiedBy_.clear();
    placeOfGw_.clear();
  }
  if (params_.failover && !isGateway() && round > 0)
    evictStaleGateways(round);
}

void MlrRouting::evictStaleGateways(std::uint32_t round) {
  // With failover on, every live gateway announces every round, so a
  // gateway last heard before round - staleAfterRounds has fallen silent:
  // stop routing to it. Its table entry (hop field toward the place) stays —
  // a recovered or replacement gateway re-validates it by re-occupying.
  for (auto it = placeOfGw_.begin(); it != placeOfGw_.end();) {
    const std::uint16_t gw = it->first;
    const auto heard = lastHeardRound_.find(gw);
    const std::uint32_t last =
        heard == lastHeardRound_.end() ? 0 : heard->second;
    if (gw != self() && last + params_.staleAfterRounds < round) {
      const std::uint16_t place = it->second;
      if (occupiedBy_.contains(place) && occupiedBy_.at(place) == gw)
        occupiedBy_.erase(place);
      it = placeOfGw_.erase(it);
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kGatewayEvict,
                 now().us, 0, static_cast<std::uint32_t>(self()), gw,
                 obs::TraceDropReason::kNone, place);
      onGatewayPresumedDown(gw);
    } else {
      ++it;
    }
  }
}

void MlrRouting::onGatewayPresumedDown(std::uint16_t /*gateway*/) {}

void MlrRouting::onTopologyChanged() {
  // The awake relay set changed (§4.4 sleep epoch): hop counts and next
  // hops may now point through sleeping nodes. Occupancy (which gateway is
  // where) is unaffected; the cost field must re-form from fresh floods.
  table_.assign(table_.size(), PlaceEntry{});
  advertised_.clear();
  pendingAcks_.clear();
}

std::optional<std::uint16_t> MlrRouting::selectedPlace() const {
  std::optional<std::uint16_t> best;
  double bestCost = std::numeric_limits<double>::max();
  for (const auto& [place, gw] : occupiedBy_) {
    const PlaceEntry& e = table_[place];
    if (!e.known) continue;
    double cost = e.hops;
    // §4.3: an overloaded gateway advertised congestion this round — make
    // its place look a few hops further so marginal traffic spills over to
    // "starved" gateways. The penalty scales with the EXCESS over the
    // threshold (a gateway exactly at the threshold pays nothing), which
    // damps the shed-everything/ping-pong oscillation a flat penalty causes.
    if (params_.loadAdvisoryThreshold > 0) {
      const auto advisory = advisories_.find(gw);
      if (advisory != advisories_.end() && advisory->second.round == round_) {
        const double excess =
            std::max(0.0,
                     (static_cast<double>(advisory->second.loadPermille) -
                      1000.0) /
                         1000.0);
        cost += params_.loadPenaltyHops * excess;
      }
    }
    if (params_.energyAwareSelection && e.nextHop != net::kNoNode) {
      // Extension ablation: bias away from routes whose first relay is
      // nearly drained (idealised — a deployment would piggyback residual
      // energy on HELLO beacons).
      const auto& battery = network().node(e.nextHop).battery();
      if (battery.finite()) {
        const double frac =
            battery.remainingJ() /
            network().energyParams().initialEnergyJ;
        cost += 4.0 * (1.0 - frac);
      }
    }
    if (cost < bestCost) {
      bestCost = cost;
      best = place;
    }
  }
  return best;
}

std::size_t MlrRouting::knownEntryCount() const {
  std::size_t n = 0;
  for (const auto& e : table_)
    if (e.known) ++n;
  return n;
}

void MlrRouting::announceMove(std::uint16_t newPlace, std::uint16_t prevPlace,
                              std::uint32_t round) {
  WMSN_PROFILE_PHASE(kRouteMaintenance);
  WMSN_REQUIRE_MSG(isGateway(), "only gateways announce moves");
  myPlace_ = newPlace;
  GatewayMoveMsg msg;
  msg.gateway = static_cast<std::uint16_t>(self());
  msg.newPlace = newPlace;
  msg.prevPlace = prevPlace;
  msg.round = round;
  msg.hopCount = 0;
  // Update our own view so data addressed here is recognised.
  if (prevPlace != kNoPlace) occupiedBy_.erase(prevPlace);
  occupiedBy_.set(newPlace, msg.gateway);
  placeOfGw_[msg.gateway] = newPlace;
  advertised_[advertKey(msg.gateway, round)] = 0;
  sendBroadcast(makePacket(net::PacketKind::kGatewayMove, net::kBroadcastId,
                           msg.encode()));
}

void MlrRouting::onReceive(const net::Packet& packet, net::NodeId from) {
  switch (packet.kind) {
    case net::PacketKind::kGatewayMove:
      handleMove(packet, from);
      return;
    case net::PacketKind::kData:
      handleData(packet, from);
      return;
    case net::PacketKind::kAck:
      handleAck(packet);
      return;
    case net::PacketKind::kLoadAdvisory:
      handleLoadAdvisory(packet);
      return;
    case net::PacketKind::kCommand:
      handleCommand(packet);
      return;
    default:
      return;
  }
}

void MlrRouting::handleMove(const net::Packet& packet, net::NodeId from) {
  const GatewayMoveMsg msg = GatewayMoveMsg::decode(packet.payload);
  applyMove(msg, from, /*reflood=*/true);
}

void MlrRouting::applyMove(const GatewayMoveMsg& msg, net::NodeId from,
                           bool reflood) {
  WMSN_PROFILE_PHASE(kRouteMaintenance);
  if (msg.newPlace >= table_.size()) return;  // malformed
  if (msg.gateway == self()) return;

  // Freshness for the failover staleness check, its only reader (monotone:
  // late-arriving re-floods of an old announcement must not rejuvenate a
  // dead gateway).
  if (params_.failover) {
    auto& heard = lastHeardRound_[msg.gateway];
    heard = std::max(heard, msg.round);
  }

  // Occupancy bookkeeping: where each gateway now is.
  if (occupiedBy_.contains(msg.prevPlace) &&
      occupiedBy_.at(msg.prevPlace) == msg.gateway)
    occupiedBy_.erase(msg.prevPlace);
  occupiedBy_.set(msg.newPlace, msg.gateway);
  placeOfGw_[msg.gateway] = msg.newPlace;

  // Incremental table update (§5.3 step 2). Equal-cost updates refresh the
  // next hop too: when a DIFFERENT gateway re-occupies a known place, the
  // one-hop neighbours must repoint from the departed gateway to the new
  // occupant.
  PlaceEntry& entry = table_[msg.newPlace];
  const bool wasKnown = entry.known;
  const std::uint16_t prevHops = entry.hops;
  const std::uint16_t cand = static_cast<std::uint16_t>(msg.hopCount + 1);
  if (!entry.known || cand <= entry.hops) {
    WMSN_PERF(kRouteMutations);
    entry.known = true;
    entry.hops = cand;
    entry.nextHop = from;
  }
  WMSN_INVARIANT_MSG(
      inv::entryMonotone(wasKnown, prevHops, entry.hops),
      "MLR §5.3: an accumulated entry is never rebuilt — updates may only "
      "keep or improve its hop count");
  WMSN_INVARIANT_MSG(
      inv::tableWithinPlaces(knownEntryCount(),
                             knowledge().feasiblePlaces.size()) &&
          occupiedBy_.size() <= knowledge().feasiblePlaces.size(),
      "MLR §5.3: table and occupancy never exceed |P| entries");

  // A gateway just became routable — release any readings parked while the
  // network had none.
  if (params_.failover && !isGateway() && !deferred_.empty()) flushDeferred();

  // Gateways learn occupancy but never join the BFS tree: they are sinks,
  // not relays, and they move — a table entry pointing through a gateway
  // would break the moment it departs.
  if (isGateway()) return;

  if (!reflood) return;  // SecMLR runs its own (pre-verification) flood

  // Re-flood on first sight or improvement, advertising OUR current best
  // hops for the place (which may come from an older round — static sensors
  // keep old entries valid, so the flood converges to true BFS distances).
  const std::uint64_t key = advertKey(msg.gateway, msg.round);
  const std::uint16_t mine = entry.hops;
  auto it = advertised_.find(key);
  if (it != advertised_.end() && it->second <= mine) return;
  advertised_[key] = mine;

  GatewayMoveMsg rebroadcast = msg;
  rebroadcast.hopCount = mine;
  sendBroadcastJittered(makePacket(net::PacketKind::kGatewayMove,
                                   net::kBroadcastId, rebroadcast.encode()));
}

void MlrRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  const std::uint64_t uid = registerGenerated();

  // A sleeping node wakes just long enough to hand the reading to its GAF
  // cell leader (guaranteed in range), which owns a fresh routing table.
  if (delegate_) {
    DataMsg msg;
    msg.source = static_cast<std::uint16_t>(self());
    msg.gateway = kAllGateways;   // the delegate fills these in
    msg.place = kNoPlace;
    msg.dataSeq = ++seq_;
    msg.reading = std::move(appPayload);
    net::Packet pkt =
        makePacket(net::PacketKind::kData, *delegate_, msg.encode());
    pkt.uid = uid;
    pkt.seq = seq_;
    sendUnicast(*delegate_, std::move(pkt));
    return;
  }

  const auto place = selectedPlace();
  if (!place) {
    // Failover: park the reading (bounded) and flush it when some gateway
    // becomes routable again. It keeps its uid, so a late delivery still
    // counts in PDR; overflow and never-flushed readings stay undelivered.
    if (params_.failover && deferred_.size() < params_.deferredCapacity) {
      deferred_.push_back(Deferred{uid, ++seq_, std::move(appPayload)});
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDefer, now().us,
                 uid, static_cast<std::uint32_t>(self()), obs::kTraceNoPeer,
                 obs::TraceDropReason::kNoRoute);
    } else {
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
                 uid, static_cast<std::uint32_t>(self()), obs::kTraceNoPeer,
                 obs::TraceDropReason::kNoRoute);
    }
    return;  // no reachable gateway known — counted as undelivered
  }

  DataMsg msg;
  msg.source = static_cast<std::uint16_t>(self());
  msg.gateway = occupiedBy_.at(*place);
  msg.place = *place;
  msg.dataSeq = ++seq_;
  msg.reading = std::move(appPayload);

  const net::NodeId nextHop = table_[*place].nextHop;
  net::Packet pkt = makePacket(net::PacketKind::kData, nextHop, msg.encode());
  pkt.uid = uid;
  pkt.seq = seq_;
  pkt.finalDst = msg.gateway;

  if (params_.reliableForwarding)
    sendWithAck(std::move(pkt), nextHop, *place);
  else
    sendUnicast(nextHop, std::move(pkt));
}

void MlrRouting::handleData(const net::Packet& packet, net::NodeId from) {
  const DataMsg msg = DataMsg::decode(packet.payload);

  if (params_.reliableForwarding) {
    // Hop-by-hop ACK back to the immediate sender.
    AckMsg ack;
    ack.uid = packet.uid;
    sendUnicast(from, makePacket(net::PacketKind::kAck, from, ack.encode()));
  }

  if (isGateway()) {
    // Accept data addressed to us OR to the place we currently occupy (the
    // source may still name the previous occupant of this place).
    if (msg.gateway == self() ||
        (myPlace_ != kNoPlace && msg.place == myPlace_)) {
      ++dataReceivedThisRound_;
      reportDelivered(packet.uid, msg.source, packet.hops + 1u);
    }
    return;
  }
  forwardData(packet, msg);
}

void MlrRouting::forwardData(net::Packet packet, const DataMsg& msg) {
  if (msg.place == kNoPlace) {
    // Delegated reading from a sleeping cell member (§4.4): adopt it as if
    // it were our own traffic, keeping the original source.
    const auto place = selectedPlace();
    if (!place) {
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
                 packet.uid, static_cast<std::uint32_t>(self()),
                 obs::kTraceNoPeer, obs::TraceDropReason::kNoRoute,
                 packet.hops);
      return;
    }
    DataMsg adopted = msg;
    adopted.gateway = occupiedBy_.at(*place);
    adopted.place = *place;
    net::Packet fwd = makePacket(net::PacketKind::kData,
                                 table_[*place].nextHop, adopted.encode());
    fwd.uid = packet.uid;
    fwd.origin = packet.origin;
    fwd.seq = packet.seq;
    fwd.finalDst = adopted.gateway;
    fwd.hops = static_cast<std::uint8_t>(packet.hops + 1);
    if (params_.reliableForwarding)
      sendWithAck(std::move(fwd), table_[*place].nextHop, *place);
    else
      sendUnicast(table_[*place].nextHop, std::move(fwd));
    return;
  }
  if (msg.place >= table_.size()) return;
  const PlaceEntry& entry = table_[msg.place];
  // Failover additionally demands the target place still be occupied — a
  // packet addressed to an evicted gateway is re-homed below rather than
  // walking a route to nobody.
  const bool routable =
      entry.known && (!params_.failover || occupiedBy_.contains(msg.place));
  if (!routable) {
    // Stale route upstream. Legacy behaviour drops; failover re-homes the
    // packet to the best place this node knows (hop cap bounds loops).
    if (!params_.failover || packet.hops >= 32) {
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
                 packet.uid, static_cast<std::uint32_t>(self()),
                 obs::kTraceNoPeer, obs::TraceDropReason::kStaleRoute,
                 packet.hops);
      return;
    }
    const auto place = selectedPlace();
    if (!place || *place == msg.place) {
      WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
                 packet.uid, static_cast<std::uint32_t>(self()),
                 obs::kTraceNoPeer, obs::TraceDropReason::kNoRoute,
                 packet.hops);
      return;
    }
    WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kReroute, now().us,
               packet.uid, static_cast<std::uint32_t>(self()),
               occupiedBy_.at(*place), obs::TraceDropReason::kStaleRoute,
               *place);
    DataMsg rehomed = msg;
    rehomed.gateway = occupiedBy_.at(*place);
    rehomed.place = *place;
    net::Packet fwd = makePacket(net::PacketKind::kData,
                                 table_[*place].nextHop, rehomed.encode());
    fwd.uid = packet.uid;
    fwd.origin = packet.origin;
    fwd.seq = packet.seq;
    fwd.finalDst = rehomed.gateway;
    fwd.hops = static_cast<std::uint8_t>(packet.hops + 1);
    if (params_.reliableForwarding)
      sendWithAck(std::move(fwd), table_[*place].nextHop, *place);
    else
      sendUnicast(table_[*place].nextHop, std::move(fwd));
    return;
  }

  packet.hops = static_cast<std::uint8_t>(packet.hops + 1);
  packet.hopSrc = self();
  if (params_.reliableForwarding)
    sendWithAck(std::move(packet), entry.nextHop, msg.place);
  else
    sendUnicast(entry.nextHop, std::move(packet));
}

void MlrRouting::sendWithAck(net::Packet packet, net::NodeId nextHop,
                             std::uint16_t place) {
  const std::uint64_t uid = packet.uid;
  PendingAck pending;
  pending.packet = std::move(packet);
  pending.nextHop = nextHop;
  pending.place = place;
  pendingAcks_[uid] = std::move(pending);
  transmitPending(uid);
}

void MlrRouting::transmitPending(std::uint64_t uid) {
  auto it = pendingAcks_.find(uid);
  if (it == pendingAcks_.end()) return;  // acknowledged meanwhile
  net::Packet copy = it->second.packet;
  // Failover doubles the ACK wait per retry (bounded): during an outage
  // every retransmission fails, and fixed-interval retries would keep the
  // channel saturated exactly when the network is trying to reconverge.
  const sim::Time timeout =
      params_.failover
          ? sim::Time{params_.ackTimeout.us
                      << std::min(it->second.retries, 5u)}
          : params_.ackTimeout;
  sendUnicast(it->second.nextHop, std::move(copy));

  scheduleAfter(timeout, [this, uid] {
    auto entry = pendingAcks_.find(uid);
    if (entry == pendingAcks_.end()) return;  // acknowledged
    if (entry->second.retries < params_.maxRetransmits) {
      ++entry->second.retries;
      transmitPending(uid);
    } else {
      invalidateVia(entry->second.nextHop);
      PendingAck lost = std::move(entry->second);
      pendingAcks_.erase(entry);
      if (params_.failover) {
        rerouteAfterAckLoss(std::move(lost));
      } else if (lost.packet.kind == net::PacketKind::kData) {
        WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
                   lost.packet.uid, static_cast<std::uint32_t>(self()),
                   lost.nextHop, obs::TraceDropReason::kAckExhausted,
                   lost.packet.hops);
      }
    }
  });
}

void MlrRouting::rerouteAfterAckLoss(PendingAck pending) {
  if (pending.packet.kind != net::PacketKind::kData) return;
  if (pending.reroutes >= params_.maxReroutes) {
    WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
               pending.packet.uid, static_cast<std::uint32_t>(self()),
               pending.nextHop, obs::TraceDropReason::kAckExhausted,
               pending.reroutes);
    return;
  }
  const auto place = selectedPlace();
  if (!place) {
    WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kDrop, now().us,
               pending.packet.uid, static_cast<std::uint32_t>(self()),
               pending.nextHop, obs::TraceDropReason::kNoRoute,
               pending.packet.hops);
    return;
  }
  WMSN_TRACE(network().tracer(), obs::TraceSpanKind::kReroute, now().us,
             pending.packet.uid, static_cast<std::uint32_t>(self()),
             occupiedBy_.at(*place), obs::TraceDropReason::kAckExhausted,
             pending.reroutes + 1);
  // Retarget at the current best place (invalidateVia just dropped every
  // entry through the dead link, so this picks a genuinely different path).
  DataMsg msg = DataMsg::decode(pending.packet.payload);
  msg.gateway = occupiedBy_.at(*place);
  msg.place = *place;
  const net::NodeId nextHop = table_[*place].nextHop;
  net::Packet pkt =
      makePacket(net::PacketKind::kData, nextHop, msg.encode());
  pkt.uid = pending.packet.uid;
  pkt.origin = pending.packet.origin;
  pkt.seq = pending.packet.seq;
  pkt.finalDst = msg.gateway;
  pkt.hops = pending.packet.hops;

  PendingAck next;
  next.packet = std::move(pkt);
  next.nextHop = nextHop;
  next.place = *place;
  next.reroutes = pending.reroutes + 1;
  const std::uint64_t uid = next.packet.uid;
  pendingAcks_[uid] = std::move(next);
  transmitPending(uid);
}

void MlrRouting::flushDeferred() {
  const auto place = selectedPlace();
  if (!place) return;
  std::vector<Deferred> queue = std::move(deferred_);
  deferred_.clear();
  for (Deferred& d : queue) {
    DataMsg msg;
    msg.source = static_cast<std::uint16_t>(self());
    msg.gateway = occupiedBy_.at(*place);
    msg.place = *place;
    msg.dataSeq = d.seq;
    msg.reading = std::move(d.reading);
    const net::NodeId nextHop = table_[*place].nextHop;
    net::Packet pkt =
        makePacket(net::PacketKind::kData, nextHop, msg.encode());
    pkt.uid = d.uid;
    pkt.seq = d.seq;
    pkt.finalDst = msg.gateway;
    if (params_.reliableForwarding)
      sendWithAck(std::move(pkt), nextHop, *place);
    else
      sendUnicast(nextHop, std::move(pkt));
  }
}

void MlrRouting::invalidateVia(net::NodeId nextHop) {
  // The link looks dead: forget every table entry that depends on it. The
  // entries re-form from the next move flood ("self-healing").
  for (auto& entry : table_)
    if (entry.known && entry.nextHop == nextHop) entry = PlaceEntry{};
}

void MlrRouting::handleAck(const net::Packet& packet) {
  if (!params_.reliableForwarding) return;
  const AckMsg msg = AckMsg::decode(packet.payload);
  pendingAcks_.erase(msg.uid);
}

// --- §4.3 load balance -------------------------------------------------------

void MlrRouting::maybeAdviseLoad(std::uint32_t round) {
  if (params_.loadAdvisoryThreshold == 0 || round == 0) return;
  if (dataReceivedThisRound_ <= params_.loadAdvisoryThreshold) return;
  LoadAdvisoryMsg msg;
  msg.gateway = static_cast<std::uint16_t>(self());
  msg.place = myPlace_;
  msg.round = round;
  // 1000‰ = exactly at the threshold; clamp far-overloaded gateways at 2x.
  const double ratio = static_cast<double>(dataReceivedThisRound_) /
                       static_cast<double>(params_.loadAdvisoryThreshold);
  msg.loadPermille =
      static_cast<std::uint16_t>(std::min(2.0, ratio) * 1000.0);
  msg.hopCount = 0;
  sendBroadcast(makePacket(net::PacketKind::kLoadAdvisory, net::kBroadcastId,
                           msg.encode()));
}

void MlrRouting::handleLoadAdvisory(const net::Packet& packet) {
  const LoadAdvisoryMsg msg = LoadAdvisoryMsg::decode(packet.payload);
  if (msg.gateway == self()) return;
  advisories_[msg.gateway] = Advisory{msg.round, msg.loadPermille};
  if (isGateway()) return;  // sinks learn but do not relay
  // Flood with the usual first-seen/improvement rule.
  const std::uint64_t key = advertKey(msg.gateway, msg.round) ^ 0x10adULL;
  const std::uint16_t mine = static_cast<std::uint16_t>(msg.hopCount + 1);
  auto it = advisoryReflooded_.find(key);
  if (it != advisoryReflooded_.end() && it->second <= mine) return;
  advisoryReflooded_[key] = mine;
  LoadAdvisoryMsg rebroadcast = msg;
  rebroadcast.hopCount = mine;
  sendBroadcastJittered(makePacket(net::PacketKind::kLoadAdvisory,
                                   net::kBroadcastId, rebroadcast.encode()));
}

// --- downstream commands (§5.1) ------------------------------------------------

std::uint32_t MlrRouting::sendCommand(net::NodeId target, Bytes body) {
  WMSN_REQUIRE_MSG(isGateway(), "commands originate at gateways");
  CommandMsg msg;
  msg.gateway = static_cast<std::uint16_t>(self());
  msg.target = static_cast<std::uint16_t>(target);
  msg.commandSeq = ++commandSeq_;
  msg.body = std::move(body);
  seenCommands_.insert(
      (static_cast<std::uint64_t>(msg.gateway) << 32) | msg.commandSeq);
  sendBroadcast(
      makePacket(net::PacketKind::kCommand, net::kBroadcastId, msg.encode()));
  return msg.commandSeq;
}

void MlrRouting::acceptCommand(const CommandMsg& msg) {
  ++commandsReceived_;
  if (commandHandler_) commandHandler_(msg);
}

void MlrRouting::handleCommand(const net::Packet& packet) {
  const CommandMsg msg = CommandMsg::decode(packet.payload);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(msg.gateway) << 32) | msg.commandSeq;
  if (!seenCommands_.insert(key).second) return;
  if (msg.target == self()) {
    acceptCommand(msg);
    return;  // scoped flood: the target terminates its branch
  }
  if (isGateway()) return;  // sinks do not relay the sensor-tier flood
  net::Packet copy = packet;
  copy.hops = static_cast<std::uint8_t>(packet.hops + 1);
  sendBroadcastJittered(std::move(copy));
}

}  // namespace wmsn::routing
