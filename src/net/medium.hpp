#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "net/energy.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "obs/packet_trace.hpp"
#include "sim/node_state.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace wmsn::net {

/// What the medium needs to know about the node population. Implemented by
/// SensorNetwork; keeps Medium free of ownership cycles.
class MediumHost {
 public:
  virtual ~MediumHost() = default;

  virtual std::size_t nodeCount() const = 0;
  virtual Point positionOf(NodeId id) const = 0;
  virtual bool aliveOf(NodeId id) const = 0;
  /// Alive AND radio on — frames only reach listening nodes (§4.4 sleep
  /// scheduling turns radios off).
  virtual bool listeningOf(NodeId id) const = 0;

  /// Energy charges; the host applies them to the node's battery and handles
  /// node death.
  virtual void chargeTx(NodeId id, double joules) = 0;
  virtual void chargeRx(NodeId id, double joules) = 0;

  /// A frame addressed to `to` (unicast match or broadcast) decoded
  /// successfully.
  virtual void deliverFrame(NodeId to, const Packet& packet, NodeId from) = 0;

  /// Traffic accounting hooks.
  virtual void noteTransmit(PacketKind kind, std::size_t bytes) = 0;
  virtual void noteCollision() = 0;
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
/// In-range candidates come from the network's sim::SpatialGrid (wired in
/// via setHotState right after construction), so a transmission costs O(k)
/// in the local neighborhood instead of the O(n) all-nodes sweep it used to.
/// Carrier sense and collision state are per-node — a busy-until horizon and
/// a per-receiver reception list — so neither ever scans a global vector.
class Medium {
 public:
  Medium(sim::Simulator& simulator, const RadioModel& radio,
         const EnergyParams& energy, MediumHost& host, MediumParams params,
         Rng rng);

  /// Wires in the struct-of-arrays hot state (positions + spatial grid).
  /// Must be set before the first transmit; SensorNetwork does so in its
  /// constructor.
  void setHotState(const sim::NodeStateBlock* hot) { hot_ = hot; }

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

  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
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

  void transmitAttempt(NodeId from, const Frame& frame,
                       std::uint32_t retriesLeft);
  std::uint32_t acquireReception(sim::Time start, sim::Time end);
  void releaseReception(std::uint32_t index);
  fault::GilbertElliottChain& chainFor(NodeId rx);

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
  /// Scratch for grid candidate queries — reused across transmissions.
  std::vector<std::uint32_t> scratch_;
  std::unordered_set<NodeId> promiscuous_;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t arqRetransmissions_ = 0;
  std::unordered_map<NodeId, fault::GilbertElliottChain> linkChains_;
  std::uint64_t framesLinkFaultDropped_ = 0;
};

}  // namespace wmsn::net
