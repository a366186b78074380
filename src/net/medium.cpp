#include "net/medium.hpp"

#include <algorithm>

#include "obs/perf_stats.hpp"
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
  if (!host_.aliveOf(from)) return;

  const Packet& packet = *frame;
  const sim::Time now = simulator_.now();
  const sim::Time end = now + airTime(packet);
  const Point srcPos = host_.positionOf(from);
  const std::size_t bits = packet.sizeBits();

  ++framesTransmitted_;
  WMSN_PERF(kFramesTransmitted);
  host_.noteTransmit(packet.kind, packet.sizeBytes());
  // Fixed transmit power sized to the nominal range (§5.2: identical power).
  host_.chargeTx(from, energy_.txCost(bits, radio_.nominalRange()));
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(tracer_, obs::TraceSpanKind::kMacTx, now.us, packet.uid, from,
               packet.hopDst, obs::TraceDropReason::kNone, retriesLeft,
               static_cast<std::uint32_t>(packet.sizeBytes()));

  WMSN_REQUIRE_MSG(hot_ != nullptr, "Medium::setHotState not wired");
  const std::size_t n = host_.nodeCount();
  if (busyUntil_.size() < n) busyUntil_.resize(n, sim::Time{});
  if (rxOngoing_.size() < n) rxOngoing_.resize(n);

  // Candidate receivers from the spatial grid: everyone whose cell
  // intersects the transmit disk, ascending by id so draw order matches the
  // old 0..n-1 scan byte for byte.
  hot_->grid().query(srcPos.x, srcPos.y, radio_.nominalRange(), scratch_);
  WMSN_PERF(kGridQueries);
  WMSN_PERF(kPairsExamined, scratch_.size());
  for (const std::uint32_t rx : scratch_) {
    if (!radio_.linked(srcPos, Point{hot_->x(rx), hot_->y(rx)})) continue;
    // Every radio in range hears energy on the channel — including the
    // sender itself and nodes that are asleep, failed, or dead. Carrier
    // sense is about the channel, not about who can decode.
    if (busyUntil_[rx] < end) busyUntil_[rx] = end;
    if (rx == from || !host_.listeningOf(rx)) continue;

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
        radio_.deliveryProbability(srcPos, host_.positionOf(rx));
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
      const bool rxAlive = host_.listeningOf(rx);
      const bool decoded = rxAlive && !corrupted && channelOk && linkOk;
      if (rxAlive) {
        // The radio listened for the whole frame either way.
        host_.chargeRx(rx, energy_.rxCost(packet.sizeBits()));
        if (corrupted) {
          ++framesCorrupted_;
          host_.noteCollision();
        }
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
  }
}

void Medium::transmitLongRange(NodeId from, NodeId to, Packet packet) {
  if (!host_.aliveOf(from)) return;
  const sim::Time end = simulator_.now() + airTime(packet);
  const double d = distance(host_.positionOf(from), host_.positionOf(to));
  const std::size_t bits = packet.sizeBits();

  packet.hopSrc = from;
  packet.hopDst = to;
  ++framesTransmitted_;
  WMSN_PERF(kFramesTransmitted);
  host_.noteTransmit(packet.kind, packet.sizeBytes());
  host_.chargeTx(from, energy_.txCost(bits, d));

  simulator_.scheduleAt(
      end, [this, to, frame = std::make_shared<const Packet>(std::move(packet))] {
        if (!host_.listeningOf(to)) return;
        host_.chargeRx(to, energy_.rxCost(frame->sizeBits()));
        host_.deliverFrame(to, *frame, frame->hopSrc);
      });
}

}  // namespace wmsn::net
