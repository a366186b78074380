#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "net/energy.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "net/unit_disk.hpp"
#include "obs/packet_trace.hpp"
#include "obs/perf_stats.hpp"
#include "sim/node_state.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace wmsn::net {

/// What the medium reports back to the node population: energy charges and
/// decoded frames. Implemented by SensorNetwork; keeps Medium free of
/// ownership cycles. Positions and liveness the medium reads straight from
/// the sim::NodeStateBlock (see setHotState); frames, bytes and collisions
/// it counts itself.
class MediumHost {
 public:
  virtual ~MediumHost() = default;

  /// Energy charges; the host applies them to the node's battery and handles
  /// node death.
  virtual void chargeTx(NodeId id, double joules) = 0;
  virtual void chargeRx(NodeId id, double joules) = 0;

  /// A frame addressed to `to` (unicast match or broadcast) decoded
  /// successfully.
  virtual void deliverFrame(NodeId to, const Packet& packet, NodeId from) = 0;
};

struct MediumParams {
  double bitrateBps = 250'000.0;  ///< 802.15.4 payload bitrate
  bool collisions = true;         ///< overlapping receptions corrupt frames
  /// 802.15.4 AUTO-ACK link-layer ARQ: unicast frames that the addressed
  /// receiver fails to decode are retransmitted (macMaxFrameRetries).
  bool unicastArq = true;
  std::uint32_t maxArqRetries = 3;
  sim::Time arqTurnaround = sim::Time::microseconds(864);  ///< ACK wait
  std::size_t ackFrameBytes = 11;  ///< immediate-ACK frame size
  /// Bursty link impairment (fault injection): each receiver runs its own
  /// Gilbert–Elliott chain, stepped once per short-range frame it hears.
  /// The chains draw from their own RNG streams (derived from
  /// `linkLossSeed`, not the medium's), so disabling the model reproduces
  /// the unimpaired run byte-for-byte.
  fault::GilbertElliottParams linkLoss;
  std::uint64_t linkLossSeed = 0;
};

/// Shared broadcast radio channel. Every frame physically reaches all alive
/// nodes within radio range of the sender: all of them pay RX energy (radios
/// must decode the header before filtering), all of them can collide, and
/// the host delivers the frame to those the addressing matches — which is
/// exactly what lets routing protocols overhear and adversaries eavesdrop.
///
/// Who hears whom is precomputed (docs/KERNEL.md "Static adjacency").
/// Sensors never move and all transmit at one power, so their exact
/// unit-disk graph is built once per layout; a moving gateway's row of
/// in-range sensors is recomputed when it moves. A transmission walks the
/// sender's row merged with the few gateways, O(k) in the neighbourhood.
/// Carrier sense and collision state are per-node — a busy-until horizon and
/// a per-receiver reception list — so neither ever scans a global vector.
class Medium {
 public:
  Medium(sim::Simulator& simulator, const RadioModel& radio,
         const EnergyParams& energy, MediumHost& host, MediumParams params,
         Rng rng);

  /// Wires in the struct-of-arrays hot state (positions and liveness).
  /// Must be set before the first node is added; SensorNetwork does so in
  /// its constructor.
  void setHotState(const sim::NodeStateBlock* hot) { hot_ = hot; }

  /// Registers the node the hot state just added as `id`. Adding a sensor
  /// after the sensor graph was built marks it for a rebuild before the next
  /// transmission (hand-built networks add nodes in any order).
  void addNode(NodeId id, bool gateway);

  /// Adopts the exact sensor graph of this layout, built over nodes
  /// 0..size()-1 — every node added so far, all of them sensors — at the
  /// radio's nominal range. The scenario builder computes it anyway to
  /// check connectivity, so set-up runs the cell pass once.
  void adoptSensorLinks(UnitDiskGraph links);

  /// Recomputes gateway `id`'s row of in-range sensors after it moved.
  void gatewayMoved(NodeId id);

  /// Calls fn(id) for every node within radio range of `from` — `from`
  /// itself included, dead, failed and asleep ones too — ascending by id.
  template <typename Fn>
  void forEachInRange(NodeId from, Fn&& fn);

  /// Begin transmitting `packet` from node `from` at fixed power (nominal
  /// range). Delivery callbacks fire when the frame's air time elapses.
  /// Unicast frames get link-layer ARQ (see MediumParams::unicastArq).
  void transmit(NodeId from, Packet packet);

  /// Power-amplified point-to-point transmission over `distance` metres,
  /// bypassing the normal range limit — models LEACH's cluster-head → sink
  /// long-haul sends. No interference with the short-range channel.
  void transmitLongRange(NodeId from, NodeId to, Packet packet);

  /// Carrier sense: is any transmission in progress audible at `at`?
  bool channelBusy(NodeId at) const;

  /// Promiscuous mode: the node's radio delivers frames regardless of the
  /// link-layer destination. Honest sensor stacks never enable this; it is
  /// the eavesdropping primitive of the adversary models.
  void setPromiscuous(NodeId id, bool enabled);
  bool isPromiscuous(NodeId id) const { return promiscuous_.contains(id); }

  sim::Time airTime(const Packet& packet) const;

  /// Causal trace pipeline hookup (SensorNetwork wires its tracer in right
  /// after construction). nullptr disables medium-level span emission.
  void setTracer(obs::PacketTracer* tracer) { tracer_ = tracer; }

  /// Frames put on the air (every ARQ attempt and long-range send counts;
  /// link-layer ACKs do not), per packet kind, and the bytes they carried.
  /// Every kind but kData is routing overhead.
  std::uint64_t framesTransmitted() const;
  /// The kinds that were transmitted at least once, ascending by kind.
  std::map<PacketKind, std::uint64_t> framesByKind() const;
  std::uint64_t dataFrames() const { return framesByKind_[kDataSlot]; }
  std::uint64_t controlFrames() const {
    return framesTransmitted() - dataFrames();
  }
  std::uint64_t dataBytes() const { return bytesByKind_[kDataSlot]; }
  std::uint64_t controlBytes() const;
  /// Receptions lost to overlapping transmissions — the one collision count.
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  std::uint64_t arqRetransmissions() const { return arqRetransmissions_; }
  /// Frames a receiver would have decoded but for Gilbert–Elliott loss.
  std::uint64_t framesLinkFaultDropped() const {
    return framesLinkFaultDropped_;
  }

 private:
  /// One receiver's view of one in-flight frame (collision bookkeeping).
  /// Entries live in the receptions_ slab and have exactly two owners: the
  /// receiver's rxOngoing_ list (until a later reception prunes it) and the
  /// frame's pending end-of-air event (until it fires). Either may let go
  /// first; the slot is recycled when both have. An event that never fires
  /// (a cleared queue) keeps its slot until the Medium is destroyed.
  struct Reception {
    sim::Time start;
    sim::Time end;
    bool corrupted = false;
    std::uint8_t owners = 0;
  };
  /// One immutable frame per transmission, shared by every receiver's
  /// end-of-air event and by the ARQ retries of the same frame.
  using Frame = std::shared_ptr<const Packet>;
  static constexpr auto kDataSlot = static_cast<std::size_t>(PacketKind::kData);

  void transmitAttempt(NodeId from, const Frame& frame,
                       std::uint32_t retriesLeft);
  void countFrame(const Packet& packet) {
    WMSN_PERF(kFramesTransmitted);
    const auto kind = static_cast<std::size_t>(packet.kind);
    ++framesByKind_[kind];
    bytesByKind_[kind] += packet.sizeBytes();
  }
  std::uint32_t acquireReception(sim::Time start, sim::Time end);
  void releaseReception(std::uint32_t index);
  fault::GilbertElliottChain& chainFor(NodeId rx);
  /// Rebuilds the sensor graph and every gateway row if a sensor was added
  /// since the last build.
  void refreshLinks();
  void computeGatewayRow(std::size_t ordinal);

  sim::Simulator& simulator_;
  const RadioModel& radio_;
  const EnergyParams& energy_;
  MediumHost& host_;
  MediumParams params_;
  Rng rng_;
  obs::PacketTracer* tracer_ = nullptr;
  const sim::NodeStateBlock* hot_ = nullptr;

  /// Per-node carrier-sense horizon: the latest end time of any transmission
  /// whose sender was in range of this node when it keyed up. channelBusy is
  /// one array read; no transmission list is kept, let alone scanned.
  std::vector<sim::Time> busyUntil_;
  /// Reception slab and its free list (see Reception).
  std::vector<Reception> receptions_;
  std::vector<std::uint32_t> freeReceptions_;
  /// Per-receiver in-flight receptions, as receptions_ indices. Expired
  /// entries are pruned inline whenever a receiver gains a new reception.
  std::vector<std::vector<std::uint32_t>> rxOngoing_;
  /// Exact sensor-to-sensor graph (CSR, rows ascending, self included).
  UnitDiskGraph sensorLinks_;
  bool sensorLinksStale_ = false;
  std::vector<NodeId> gateways_;  ///< ascending (ids arrive in order)
  /// Per gateway ordinal: the sensors in range of its current position,
  /// ascending. Gateway-to-gateway links are tested per transmission.
  std::vector<std::vector<std::uint32_t>> gatewayRows_;
  std::unordered_set<NodeId> promiscuous_;
  std::array<std::uint64_t, kPacketKindSlots> framesByKind_{};
  std::array<std::uint64_t, kPacketKindSlots> bytesByKind_{};
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t arqRetransmissions_ = 0;
  std::unordered_map<NodeId, fault::GilbertElliottChain> linkChains_;
  std::uint64_t framesLinkFaultDropped_ = 0;
};

template <typename Fn>
void Medium::forEachInRange(NodeId from, Fn&& fn) {
  refreshLinks();
  const Point at{hot_->x(from), hot_->y(from)};
  const auto gw = std::lower_bound(gateways_.begin(), gateways_.end(), from);
  const std::span<const std::uint32_t> row =
      (gw != gateways_.end() && *gw == from)
          ? std::span<const std::uint32_t>(
                gatewayRows_[static_cast<std::size_t>(gw - gateways_.begin())])
          : sensorLinks_.row(from);
  WMSN_PERF(kGridQueries);
  WMSN_PERF(kPairsExamined, row.size() + gateways_.size());
  // Two-pointer merge of the row with the gateways in range, so the walk
  // is ascending by id whatever the order of sensor and gateway ids.
  std::size_t g = 0;
  const auto nextGatewayInRange = [&] {
    while (g < gateways_.size() &&
           !radio_.linked(at, Point{hot_->x(gateways_[g]),
                                    hot_->y(gateways_[g])}))
      ++g;
  };
  nextGatewayInRange();
  for (const std::uint32_t id : row) {
    while (g < gateways_.size() && gateways_[g] < id) {
      fn(gateways_[g++]);
      nextGatewayInRange();
    }
    fn(id);
  }
  while (g < gateways_.size()) {
    fn(gateways_[g++]);
    nextGatewayInRange();
  }
}

}  // namespace wmsn::net
