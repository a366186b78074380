#include "net/medium.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace wmsn::net {

Medium::Medium(sim::Simulator& simulator, const RadioModel& radio,
               const EnergyParams& energy, MediumHost& host,
               MediumParams params, Rng rng)
    : simulator_(simulator),
      radio_(radio),
      energy_(energy),
      host_(host),
      params_(params),
      rng_(rng) {
  WMSN_REQUIRE(params_.bitrateBps > 0.0);
}

sim::Time Medium::airTime(const Packet& packet) const {
  const double seconds =
      static_cast<double>(packet.sizeBits()) / params_.bitrateBps;
  return sim::Time::microseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(seconds * 1e6)));
}

std::uint64_t Medium::framesTransmitted() const {
  std::uint64_t total = 0;
  for (const std::uint64_t frames : framesByKind_) total += frames;
  return total;
}

std::map<PacketKind, std::uint64_t> Medium::framesByKind() const {
  std::map<PacketKind, std::uint64_t> kinds;
  for (std::size_t k = 0; k < framesByKind_.size(); ++k)
    if (framesByKind_[k] > 0)
      kinds.emplace(static_cast<PacketKind>(k), framesByKind_[k]);
  return kinds;
}

std::uint64_t Medium::controlBytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t bytes : bytesByKind_) total += bytes;
  return total - dataBytes();
}

void Medium::setPromiscuous(NodeId id, bool enabled) {
  if (enabled)
    promiscuous_.insert(id);
  else
    promiscuous_.erase(id);
}

bool Medium::channelBusy(NodeId at) const {
  return at < busyUntil_.size() && simulator_.now() < busyUntil_[at];
}

fault::GilbertElliottChain& Medium::chainFor(NodeId rx) {
  auto it = linkChains_.find(rx);
  if (it == linkChains_.end()) {
    // Each receiver gets its own chain with its own RNG stream so the order
    // in which receivers first hear a frame cannot shift anyone's draws.
    const std::uint64_t seed =
        params_.linkLossSeed ^ (static_cast<std::uint64_t>(rx) * 0x9e3779b97f4a7c15ULL);
    it = linkChains_.emplace(rx, fault::GilbertElliottChain(params_.linkLoss, seed))
             .first;
  }
  return it->second;
}

std::uint32_t Medium::acquireReception(sim::Time start, sim::Time end) {
  std::uint32_t index;
  if (freeReceptions_.empty()) {
    index = static_cast<std::uint32_t>(receptions_.size());
    receptions_.emplace_back();
  } else {
    index = freeReceptions_.back();
    freeReceptions_.pop_back();
  }
  // Two owners: the receiver's rxOngoing_ list and the end-of-air event.
  receptions_[index] = Reception{start, end, false, 2};
  return index;
}

void Medium::releaseReception(std::uint32_t index) {
  if (--receptions_[index].owners == 0) freeReceptions_.push_back(index);
}

void Medium::addNode(NodeId id, bool gateway) {
  WMSN_REQUIRE_MSG(hot_ != nullptr, "Medium::setHotState not wired");
  WMSN_REQUIRE(id == busyUntil_.size() && id < hot_->size());
  busyUntil_.emplace_back();
  rxOngoing_.emplace_back();
  if (gateway) {
    gateways_.push_back(id);
    gatewayRows_.emplace_back();
    if (!sensorLinksStale_) computeGatewayRow(gateways_.size() - 1);
  } else {
    sensorLinksStale_ = true;
  }
}

void Medium::adoptSensorLinks(UnitDiskGraph links) {
  WMSN_REQUIRE_MSG(gateways_.empty() && links.size() == busyUntil_.size(),
                   "the sensor graph must cover exactly the nodes added so "
                   "far, all sensors");
  WMSN_REQUIRE_MSG(links.range() == radio_.nominalRange(),
                   "the sensor graph must link at the radio's range");
  sensorLinks_ = std::move(links);
  sensorLinksStale_ = false;
}

void Medium::gatewayMoved(NodeId id) {
  const auto gw = std::lower_bound(gateways_.begin(), gateways_.end(), id);
  WMSN_REQUIRE(gw != gateways_.end() && *gw == id);
  if (!sensorLinksStale_)
    computeGatewayRow(static_cast<std::size_t>(gw - gateways_.begin()));
}

void Medium::refreshLinks() {
  if (!sensorLinksStale_) return;
  std::vector<Point> points;
  points.reserve(hot_->size());
  for (std::uint32_t id = 0; id < hot_->size(); ++id)
    points.push_back(Point{hot_->x(id), hot_->y(id)});
  std::vector<std::uint8_t> isSensor(points.size(), 1);
  for (const NodeId g : gateways_) isSensor[g] = 0;
  sensorLinks_ = UnitDiskGraph(points, radio_.nominalRange(), isSensor);
  sensorLinksStale_ = false;
  for (std::size_t g = 0; g < gateways_.size(); ++g) computeGatewayRow(g);
}

void Medium::computeGatewayRow(std::size_t ordinal) {
  const NodeId id = gateways_[ordinal];
  const Point at{hot_->x(id), hot_->y(id)};
  auto& row = gatewayRows_[ordinal];
  row.clear();
  sensorLinks_.forEachCandidate(at, [&](std::uint32_t s) {
    if (radio_.linked(at, Point{hot_->x(s), hot_->y(s)})) row.push_back(s);
  });
  std::sort(row.begin(), row.end());
}

void Medium::transmit(NodeId from, Packet packet) {
  const std::uint32_t retries =
      (params_.unicastArq && packet.hopDst != kBroadcastId)
          ? params_.maxArqRetries
          : 0;
  packet.hopSrc = from;
  transmitAttempt(from, std::make_shared<const Packet>(std::move(packet)),
                  retries);
}

void Medium::transmitAttempt(NodeId from, const Frame& frame,
                             std::uint32_t retriesLeft) {
  if (!hot_->alive(from)) return;

  const Packet& packet = *frame;
  const sim::Time now = simulator_.now();
  const sim::Time end = now + airTime(packet);
  const Point srcPos{hot_->x(from), hot_->y(from)};
  const std::size_t bits = packet.sizeBits();

  countFrame(packet);
  // Fixed transmit power sized to the nominal range (§5.2: identical power).
  host_.chargeTx(from, energy_.txCost(bits, radio_.nominalRange()));
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(tracer_, obs::TraceSpanKind::kMacTx, now.us, packet.uid, from,
               packet.hopDst, obs::TraceDropReason::kNone, retriesLeft,
               static_cast<std::uint32_t>(packet.sizeBytes()));

  // Receivers ascending by id, so draw order matches the old 0..n-1 scan
  // byte for byte.
  forEachInRange(from, [&](const std::uint32_t rx) {
    // Every radio in range hears energy on the channel — including the
    // sender itself and nodes that are asleep, failed, or dead. Carrier
    // sense is about the channel, not about who can decode.
    if (busyUntil_[rx] < end) busyUntil_[rx] = end;
    if (rx == from || !hot_->listening(rx)) return;

    auto& ongoing = rxOngoing_[rx];
    std::erase_if(ongoing, [&](std::uint32_t r) {
      if (receptions_[r].end > now) return false;
      releaseReception(r);
      return true;
    });

    const std::uint32_t reception = acquireReception(now, end);
    if (params_.collisions) {
      for (const std::uint32_t other : ongoing) {
        // Receiver capture: the radio stays locked on the frame it started
        // decoding first; a later-arriving overlapping frame is lost, but
        // does not corrupt the locked one. Simultaneous starts jam both.
        if (receptions_[other].start < now) {
          receptions_[reception].corrupted = true;
        } else {
          receptions_[other].corrupted = true;
          receptions_[reception].corrupted = true;
        }
      }
    }
    ongoing.push_back(reception);

    const double pDeliver =
        radio_.deliveryProbability(srcPos, Point{hot_->x(rx), hot_->y(rx)});
    WMSN_PERF(kRngDraws);
    const bool channelOk = rng_.chance(pDeliver);
    // Bursty fault-injection loss rides on top of the distance-based channel
    // model. The chain draws from its own stream, so when the model is
    // disabled no draw happens and the run is byte-identical to a build
    // without it.
    const bool linkOk =
        !params_.linkLoss.enabled || !chainFor(rx).step();

    simulator_.scheduleAt(end, [this, frame, reception, rx, from, retriesLeft,
                                channelOk, linkOk] {
      const Packet& packet = *frame;
      const bool corrupted = receptions_[reception].corrupted;
      releaseReception(reception);
      const bool isArqTarget = packet.hopDst == rx;
      const bool rxAlive = hot_->listening(rx);
      const bool decoded = rxAlive && !corrupted && channelOk && linkOk;
      if (rxAlive) {
        // The radio listened for the whole frame either way.
        host_.chargeRx(rx, energy_.rxCost(packet.sizeBits()));
        if (corrupted) ++framesCorrupted_;
        if (!corrupted && channelOk && !linkOk) ++framesLinkFaultDropped_;
      }

      if (isArqTarget && retriesLeft > 0 && !decoded) {
        // 802.15.4 AUTO-ACK ARQ: no immediate ACK arrived — retransmit
        // the same frame after the turnaround plus a short random backoff.
        ++arqRetransmissions_;
        WMSN_PERF(kRngDraws);
        const sim::Time backoff =
            params_.arqTurnaround +
            sim::Time::microseconds(rng_.uniformInt(0, 1000));
        simulator_.schedule(backoff, [this, from, frame, retriesLeft] {
          transmitAttempt(from, frame, retriesLeft - 1);
        });
        return;
      }
      if (!decoded) {
        // Terminal link-layer loss at the addressed receiver (ARQ budget —
        // if any — is spent): attribute the hop's fate for the analyzer.
        if (isArqTarget && packet.kind == PacketKind::kData)
          WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop,
                     simulator_.now().us, packet.uid, rx, from,
                     corrupted ? obs::TraceDropReason::kCollision
                               : obs::TraceDropReason::kLinkLoss,
                     packet.hops,
                     static_cast<std::uint32_t>(packet.sizeBytes()));
        return;
      }

      if (isArqTarget && params_.unicastArq) {
        // Successful unicast: account the immediate-ACK exchange (the ACK
        // itself is modelled as reliable — it rides the SIFS turnaround).
        const std::size_t ackBits = params_.ackFrameBytes * 8;
        host_.chargeTx(rx, energy_.txCost(ackBits, radio_.nominalRange()));
        host_.chargeRx(from, energy_.rxCost(ackBits));
      }

      if (packet.hopDst != kBroadcastId && packet.hopDst != rx &&
          !promiscuous_.contains(rx))
        return;
      host_.deliverFrame(rx, packet, packet.hopSrc);
    });
  });
}

void Medium::transmitLongRange(NodeId from, NodeId to, Packet packet) {
  if (!hot_->alive(from)) return;
  const sim::Time end = simulator_.now() + airTime(packet);
  const double d = distance(Point{hot_->x(from), hot_->y(from)},
                            Point{hot_->x(to), hot_->y(to)});
  const std::size_t bits = packet.sizeBits();

  packet.hopSrc = from;
  packet.hopDst = to;
  countFrame(packet);
  host_.chargeTx(from, energy_.txCost(bits, d));

  simulator_.scheduleAt(
      end, [this, to, frame = std::make_shared<const Packet>(std::move(packet))] {
        if (!hot_->listening(to)) return;
        host_.chargeRx(to, energy_.rxCost(frame->sizeBits()));
        host_.deliverFrame(to, *frame, frame->hopSrc);
      });
}

}  // namespace wmsn::net
