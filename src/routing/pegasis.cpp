#include "routing/pegasis.hpp"

#include <algorithm>
#include <limits>

#include "util/require.hpp"

namespace wmsn::routing {

PegasisRouting::PegasisRouting(net::SensorNetwork& network, net::NodeId self,
                               const NetworkKnowledge& knowledge,
                               PegasisParams params)
    : RoutingProtocol(network, self, knowledge), params_(params) {
  WMSN_REQUIRE_MSG(!knowledge.gatewayIds.empty(), "PEGASIS needs a sink");
}

net::NodeId PegasisRouting::sinkFor() const {
  // Leaders transmit to the nearest alive gateway.
  const net::Point here = network().node(self()).position();
  net::NodeId best = knowledge().gatewayIds.front();
  double bestD = std::numeric_limits<double>::max();
  for (net::NodeId g : knowledge().gatewayIds) {
    if (!network().node(g).alive()) continue;
    const double d = net::distance(here, network().node(g).position());
    if (d < bestD) {
      bestD = d;
      best = g;
    }
  }
  return best;
}

void PegasisRouting::buildChain() {
  // Greedy chain (the paper's construction): start from the sensor farthest
  // from the sink, repeatedly append the nearest not-yet-chained sensor.
  // Every node derives the identical chain from static shared knowledge.
  std::vector<net::NodeId> alive;
  for (net::NodeId s : network().sensorIds())
    if (network().node(s).alive()) alive.push_back(s);
  chain_.clear();
  if (alive.empty()) return;

  const net::Point sinkPos =
      network().node(knowledge().gatewayIds.front()).position();
  auto posOf = [this](net::NodeId id) {
    return network().node(id).position();
  };

  // The greedy chain is O(n²) by protocol: nearest-neighbor and farthest-
  // point searches over all alive sensors, not range tests a grid prunes.
  auto sinkDistSq = [&](std::size_t i) {
    // wmsn-lint: allow(rangescan-discipline)
    return net::distanceSq(posOf(alive[i]), sinkPos);
  };
  std::size_t farthest = 0;
  for (std::size_t i = 1; i < alive.size(); ++i)
    if (sinkDistSq(i) > sinkDistSq(farthest)) farthest = i;

  std::vector<bool> used(alive.size(), false);
  chain_.push_back(alive[farthest]);
  used[farthest] = true;
  while (chain_.size() < alive.size()) {
    const net::Point tail = posOf(chain_.back());
    std::size_t best = alive.size();
    double bestD = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (used[i]) continue;
      // wmsn-lint: allow(rangescan-discipline)
      const double d = net::distanceSq(tail, posOf(alive[i]));
      if (d < bestD) {
        bestD = d;
        best = i;
      }
    }
    chain_.push_back(alive[best]);
    used[best] = true;
  }
}

void PegasisRouting::onRoundStart(std::uint32_t round) {
  round_ = round;
  // Note: pending_ carries over — readings sensed after last round's sweep
  // ride this round's sweep.
  flushScheduled_ = false;
  prev_.reset();
  next_.reset();
  isLeader_ = false;
  if (isGateway()) return;

  buildChain();
  const auto it = std::find(chain_.begin(), chain_.end(), self());
  if (it == chain_.end()) return;  // dead or not chained
  chainIndex_ = static_cast<std::size_t>(it - chain_.begin());
  // "They take turns in communicating with the sink."
  leaderIndex_ = static_cast<std::size_t>(round) % chain_.size();
  isLeader_ = chainIndex_ == leaderIndex_;
  if (chainIndex_ > 0) prev_ = chain_[chainIndex_ - 1];
  if (chainIndex_ + 1 < chain_.size()) next_ = chain_[chainIndex_ + 1];

  // The gathering sweep starts at the chain ends; a solo-chain leader just
  // flushes its own buffer.
  const bool isEnd =
      chainIndex_ == 0 || chainIndex_ + 1 == chain_.size();
  if (chain_.size() == 1 && isLeader_) {
    scheduleAfter(params_.sweepStart, [this] { scheduleLeaderFlush(); });
  } else if (isEnd && !isLeader_) {
    scheduleAfter(params_.sweepStart,
                  [this] { passAlong(AggregateMsg{}, 1); });
  }
}

void PegasisRouting::scheduleLeaderFlush() {
  if (flushScheduled_) return;
  flushScheduled_ = true;
  scheduleAfter(params_.leaderHoldoff, [this] {
    flushScheduled_ = false;
    if (pending_.entries.empty()) return;
    AggregateMsg out;
    out.entries = std::move(pending_.entries);
    pending_.entries.clear();
    const net::NodeId sink = sinkFor();
    // Perfect fusion: one constant-size packet on the air, whatever it
    // represents; the entry list rides as simulator bookkeeping.
    net::Packet pkt = makePacket(net::PacketKind::kData, sink,
                                 Bytes(knowledge().readingBytes, 0xf5));
    pkt.meta = out.encode();
    pkt.finalDst = sink;
    pkt.seq = ++seq_;
    network().sendLongRangeFrom(self(), sink, std::move(pkt));
  });
}

void PegasisRouting::passAlong(AggregateMsg aggregate, std::uint8_t hops) {
  // Fuse everything this node is holding into the passing bundle.
  for (auto& entry : pending_.entries) aggregate.entries.push_back(entry);
  pending_.entries.clear();

  if (isLeader_) {
    for (auto& entry : aggregate.entries)
      pending_.entries.push_back(entry);
    scheduleLeaderFlush();  // wait for the other arm's sweep, then uplink
    return;
  }

  // Pass one link toward the leader (power-controlled chain link), fused
  // to constant size.
  const net::NodeId nextHop =
      chainIndex_ < leaderIndex_ ? *next_ : *prev_;
  for (auto& entry : aggregate.entries)
    entry.hops = static_cast<std::uint8_t>(hops);
  net::Packet pkt = makePacket(net::PacketKind::kData, nextHop,
                               Bytes(knowledge().readingBytes, 0xf5));
  pkt.meta = aggregate.encode();
  pkt.seq = ++seq_;
  network().sendLongRangeFrom(self(), nextHop, std::move(pkt));
}

void PegasisRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  const std::uint64_t uid = registerGenerated();
  (void)appPayload;  // fused into the 6-byte digest on the chain
  // Buffer until the sweep (or, for the leader, until its flush) — this is
  // what makes a whole round cost O(n) chain frames instead of O(n) per
  // reading.
  pending_.entries.push_back(
      AggregateMsg::Entry{uid, static_cast<std::uint16_t>(self()), 1});
}

void PegasisRouting::onReceive(const net::Packet& packet, net::NodeId from) {
  (void)from;
  if (packet.kind != net::PacketKind::kData) return;
  const AggregateMsg aggregate = AggregateMsg::decode(packet.meta);

  if (isGateway()) {
    for (const auto& entry : aggregate.entries)
      reportDelivered(entry.uid, entry.origin,
                      static_cast<std::uint32_t>(entry.hops) + 1u);
    return;
  }
  passAlong(aggregate, static_cast<std::uint8_t>(packet.hops + 1));
}

}  // namespace wmsn::routing
