#include "net/mac.hpp"

#include <algorithm>

#include "obs/perf_stats.hpp"
#include "obs/profiler.hpp"
#include "util/invariants.hpp"
#include "util/require.hpp"

namespace wmsn::net {

std::string toString(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kDropTail: return "drop-tail";
    case QueuePolicy::kDropOldest: return "drop-oldest";
  }
  return "unknown";
}

CsmaMac::CsmaMac(Medium& medium, sim::Simulator& simulator, NodeId self,
                 Rng rng, CsmaParams params, QueueParams queue,
                 TrafficStats* stats, obs::PacketTracer* tracer)
    : medium_(medium),
      simulator_(simulator),
      self_(self),
      rng_(rng),
      params_(params),
      queue_(queue),
      stats_(stats),
      tracer_(tracer) {}

void CsmaMac::send(Packet packet) {
  if (queue_.capacity == 0) {
    // Legacy discipline: every frame contends independently; nothing ever
    // waits behind another frame and nothing is dropped for buffer space.
    serve(std::move(packet));
    return;
  }
  if (!busy_) {
    busy_ = true;
    serve(std::move(packet));
    return;
  }
  if (depth_ >= queue_.capacity) {
    ++queueDrops_;
    if (stats_) stats_->onQueueDrop(self_);
    // The victim is the newcomer under drop-tail, the stalest waiting frame
    // under drop-oldest.
    const Packet& victim =
        queue_.policy == QueuePolicy::kDropTail ? packet : ring_[head_];
    if (victim.kind == PacketKind::kData)
      WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop, simulator_.now().us,
                 victim.uid, self_, victim.hopDst,
                 obs::TraceDropReason::kQueueOverflow, victim.hops,
                 static_cast<std::uint32_t>(victim.sizeBytes()));
    if (queue_.policy == QueuePolicy::kDropTail) return;
    // Drop-oldest: the stalest waiting frame makes room for the newcomer
    // (sensing data ages fast; fresh readings matter more).
    popWaiting();
    pushWaiting(std::move(packet));
    WMSN_INVARIANT_MSG(
        inv::queueWithinCapacity(depth_, queue_.capacity),
        "finite MAC transmit queue depth never exceeds its capacity");
    return;  // depth unchanged — no integral update needed
  }
  noteDepthChange();
  pushWaiting(std::move(packet));
  peakDepth_ = std::max(peakDepth_, depth_);
  WMSN_INVARIANT_MSG(
      inv::queueWithinCapacity(depth_, queue_.capacity) &&
          inv::queueWithinCapacity(peakDepth_, queue_.capacity),
      "finite MAC transmit queue depth never exceeds its capacity");
  if (stats_) stats_->onQueueDepth(self_, depth_);
}

void CsmaMac::pushWaiting(Packet packet) {
  if (depth_ == ring_.size()) {
    // Full: unwrap into FIFO order, then double.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.resize(std::max<std::size_t>(4, ring_.size() * 2));
  }
  ring_[(head_ + depth_) % ring_.size()] = std::move(packet);
  ++depth_;
}

Packet CsmaMac::popWaiting() {
  Packet front = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --depth_;
  return front;
}

void CsmaMac::serve(Packet packet) {
  // Initial random jitter de-synchronises nodes that react to the same
  // broadcast (e.g. a flood) in the same event — otherwise they would all
  // sense an idle channel simultaneously and collide deterministically.
  WMSN_PERF(kRngDraws);
  const sim::Time jitter = sim::Time::microseconds(
      rng_.uniformInt(0, params_.backoffUnit.us * 8));
  simulator_.schedule(jitter, [this, packet = std::move(packet)]() mutable {
    attempt(std::move(packet), 0);
  });
}

void CsmaMac::attempt(Packet packet, std::uint32_t tries) {
  WMSN_PROFILE_PHASE(kMacContention);
  if (!medium_.channelBusy(self_)) {
    const sim::Time air = medium_.airTime(packet);
    medium_.transmit(self_, std::move(packet));
    // With a finite queue the MAC is half-duplex: the next waiting frame
    // starts contending only after this one's air time elapses.
    if (queue_.capacity > 0)
      simulator_.schedule(air, [this] { serveNext(); });
    return;
  }
  if (tries + 1 >= params_.maxAttempts) {
    ++drops_;
    if (stats_) stats_->onMacDrop();
    if (packet.kind == PacketKind::kData)
      WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop, simulator_.now().us,
                 packet.uid, self_, packet.hopDst,
                 obs::TraceDropReason::kMacExhausted, tries + 1,
                 static_cast<std::uint32_t>(packet.sizeBytes()));
    if (queue_.capacity > 0) serveNext();
    return;
  }
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(tracer_, obs::TraceSpanKind::kMacBackoff, simulator_.now().us,
               packet.uid, self_, packet.hopDst, obs::TraceDropReason::kNone,
               tries + 1, static_cast<std::uint32_t>(packet.sizeBytes()));
  WMSN_PERF(kMacBackoffs);
  WMSN_PERF(kRngDraws);
  const std::uint32_t be = std::min(params_.minBackoffExponent + tries,
                                    params_.maxBackoffExponent);
  const std::int64_t slots = rng_.uniformInt(1, (1 << be) - 1);
  simulator_.schedule(
      sim::Time::microseconds(slots * params_.backoffUnit.us),
      [this, packet = std::move(packet), tries]() mutable {
        attempt(std::move(packet), tries + 1);
      });
}

void CsmaMac::serveNext() {
  if (depth_ == 0) {
    busy_ = false;
    return;
  }
  noteDepthChange();
  serve(popWaiting());
}

void CsmaMac::noteDepthChange() {
  const sim::Time now = simulator_.now();
  depthIntegral_ += static_cast<double>(depth_) *
                    (now - lastDepthChange_).seconds();
  lastDepthChange_ = now;
}

double CsmaMac::queueDepthIntegral(sim::Time now) const {
  return depthIntegral_ + static_cast<double>(depth_) *
                              (now - lastDepthChange_).seconds();
}

}  // namespace wmsn::net
