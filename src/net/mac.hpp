#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "net/metrics.hpp"
#include "net/packet.hpp"
#include "obs/packet_trace.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace wmsn::net {

/// What to do when a frame arrives at a full transmit queue.
enum class QueuePolicy : std::uint8_t {
  kDropTail,    ///< reject the newcomer (classic drop-tail)
  kDropOldest,  ///< evict the head to make room (freshest-data-first)
};

std::string toString(QueuePolicy policy);

/// Finite transmit-queue discipline. capacity == 0 keeps the legacy
/// behaviour: every send() contends for the channel independently with no
/// explicit buffer (and thus no drops), exactly as the seed experiments ran.
struct QueueParams {
  std::size_t capacity = 0;  ///< waiting slots behind the frame in service
  QueuePolicy policy = QueuePolicy::kDropTail;
};

/// Link-layer send discipline for one node.
class Mac {
 public:
  virtual ~Mac() = default;
  virtual void send(Packet packet) = 0;
  /// Frames abandoned after exhausting channel-access attempts.
  virtual std::uint64_t drops() const { return 0; }
  /// Frames rejected/evicted by a full finite transmit queue.
  virtual std::uint64_t queueDrops() const { return 0; }
  /// Deepest the transmit queue ever got (waiting frames, excluding the one
  /// in service).
  virtual std::size_t peakQueueDepth() const { return 0; }
  /// Time integral of queue depth in depth-seconds up to `now` — divide by
  /// elapsed time for the time-weighted mean depth.
  virtual double queueDepthIntegral(sim::Time now) const {
    (void)now;
    return 0.0;
  }
};

/// Transmits immediately — an idealised contention-free channel. Used by
/// analytical experiments where MAC noise would obscure the routing effect
/// (e.g. the exact Fig. 2 hop-count reproduction).
class IdealMac final : public Mac {
 public:
  IdealMac(Medium& medium, NodeId self) : medium_(medium), self_(self) {}
  void send(Packet packet) override {
    medium_.transmit(self_, std::move(packet));
  }

 private:
  Medium& medium_;
  NodeId self_;
};

struct CsmaParams {
  std::uint32_t maxAttempts = 6;
  std::uint32_t minBackoffExponent = 3;  ///< 802.15.4 macMinBE
  std::uint32_t maxBackoffExponent = 5;  ///< 802.15.4 macMaxBE
  sim::Time backoffUnit = sim::Time::microseconds(320);  ///< aUnitBackoffPeriod
};

/// Unslotted CSMA/CA in the style of 802.15.4: sense the channel, transmit
/// if idle, otherwise back off a random number of backoff units with a
/// growing window; give up after maxAttempts.
///
/// With a finite queue configured (QueueParams::capacity > 0) the MAC
/// serves one frame at a time — jitter, backoff, then the frame's air time
/// — while later sends wait in a bounded buffer; overflow drops per the
/// queue policy and is reported to TrafficStats.
class CsmaMac final : public Mac {
 public:
  CsmaMac(Medium& medium, sim::Simulator& simulator, NodeId self, Rng rng,
          CsmaParams params = {}, QueueParams queue = {},
          TrafficStats* stats = nullptr, obs::PacketTracer* tracer = nullptr);

  void send(Packet packet) override;
  std::uint64_t drops() const override { return drops_; }
  std::uint64_t queueDrops() const override { return queueDrops_; }
  std::size_t peakQueueDepth() const override { return peakDepth_; }
  double queueDepthIntegral(sim::Time now) const override;

 private:
  void attempt(Packet packet, std::uint32_t tries);
  void serve(Packet packet);
  void serveNext();
  void noteDepthChange();
  void pushWaiting(Packet packet);
  Packet popWaiting();

  Medium& medium_;
  sim::Simulator& simulator_;
  NodeId self_;
  Rng rng_;
  CsmaParams params_;
  QueueParams queue_;
  TrafficStats* stats_;
  obs::PacketTracer* tracer_;

  // Frames waiting behind the one in service: a FIFO ring of depth_ frames
  // starting at ring_[head_]. It grows on demand, so a MAC that never
  // queues allocates nothing.
  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t depth_ = 0;
  bool busy_ = false;
  std::uint64_t drops_ = 0;
  std::uint64_t queueDrops_ = 0;
  std::size_t peakDepth_ = 0;
  double depthIntegral_ = 0.0;  ///< depth-seconds accumulated so far
  sim::Time lastDepthChange_ = sim::Time::zero();
};

}  // namespace wmsn::net
