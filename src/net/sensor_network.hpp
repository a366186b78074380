#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/medium.hpp"
#include "net/metrics.hpp"
#include "net/node.hpp"
#include "net/radio.hpp"
#include "obs/mux.hpp"
#include "obs/packet_trace.hpp"
#include "sim/node_state.hpp"
#include "sim/simulator.hpp"

namespace wmsn::net {

enum class MacKind : std::uint8_t { kIdeal, kCsma };

struct SensorNetworkParams {
  EnergyParams energy;
  MediumParams medium;
  MacKind mac = MacKind::kCsma;
  CsmaParams csma;
  /// Finite per-node transmit queue (capacity 0 = legacy unbounded; see
  /// net::QueueParams). Only meaningful under the CSMA MAC.
  QueueParams queue;
  /// Random forwarding delay protocols apply before re-broadcasting a flood
  /// (storm suppression). Zero on an ideal channel, where it would only
  /// perturb BFS ordering.
  sim::Time floodJitter = sim::Time::milliseconds(30);
  bool gatewaysBatteryLimited = false;  ///< §4.1: forest-monitoring variant
  std::uint64_t seed = 1;
  /// Causal trace pipeline (obs/packet_trace.hpp). The tracer itself is
  /// always constructed — the flight-recorder ring is always-on — but spans
  /// are only retained for export when retainSpans is set.
  obs::PacketTraceOptions trace;
};

/// One low-tier wireless sensor network: the node population, the shared
/// radio medium, and reading/energy accounting. Routing protocols attach per
/// node via receive handlers and the send API.
class SensorNetwork final : public MediumHost {
 public:
  SensorNetwork(sim::Simulator& simulator, std::unique_ptr<RadioModel> radio,
                SensorNetworkParams params);

  // --- population -------------------------------------------------------
  NodeId addSensor(Point position);
  NodeId addGateway(Point position);

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  const std::vector<NodeId>& sensorIds() const { return sensorIds_; }
  const std::vector<NodeId>& gatewayIds() const { return gatewayIds_; }

  /// Alive nodes currently within radio range of `id` (excluding itself),
  /// ascending. Read from the medium's adjacency rows — the same rows frame
  /// delivery walks.
  std::vector<NodeId> neighborsOf(NodeId id) const;

  /// The active set (sorted ascending): nodes that are neither battery-dead
  /// nor fault-crashed. The round loop steps exactly these — corpses cost
  /// zero node-steps and zero RNG draws.
  const std::vector<NodeId>& activeNodeIds() const {
    return block_.activeIds();
  }

  /// The struct-of-arrays hot state (positions and flags) the kernel
  /// sweeps. Exposed read-only for diagnostics and tests.
  const sim::NodeStateBlock& hotState() const { return block_; }

  /// True if every alive node can reach some gateway over alive nodes.
  bool allSensorsCovered() const;

  std::size_t aliveSensorCount() const;
  /// Simulation time of the first sensor death, if any — the paper's network
  /// lifetime definition (§5.3).
  std::optional<sim::Time> firstSensorDeathTime() const;

  /// Nodes currently crashed by fault injection (Node::failed()); disjoint
  /// from battery deaths, which are permanent.
  std::size_t failedSensorCount() const {
    std::size_t count = 0;
    for (const NodeId s : sensorIds_)
      if (nodes_[s]->failed()) ++count;
    return count;
  }
  std::size_t failedGatewayCount() const {
    std::size_t count = 0;
    for (const NodeId g : gatewayIds_)
      if (nodes_[g]->failed()) ++count;
    return count;
  }

  // --- protocol-facing services ------------------------------------------
  sim::Simulator& simulator() { return simulator_; }
  Medium& medium() { return *medium_; }
  const Medium& medium() const { return *medium_; }
  const RadioModel& radio() const { return *radio_; }
  const EnergyParams& energyParams() const { return params_.energy; }
  TrafficStats& stats() { return stats_; }
  const TrafficStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }

  std::uint64_t nextPacketUid() { return ++uidCounter_; }
  sim::Time floodJitter() const { return params_.floodJitter; }

  /// The causal trace pipeline: every packet-lifecycle hot point emits here
  /// via WMSN_TRACE. Never null — the flight-recorder ring is always-on;
  /// retention/sampling is governed by SensorNetworkParams::trace.
  obs::PacketTracer* tracer() { return &tracer_; }

  /// Per-frame test tap: invoked with transmit=true when a node hands a
  /// frame to its MAC, and transmit=false when a frame is delivered to a
  /// node's protocol. Tests read on-air payloads and delivery order through
  /// it, which no span carries; the run's trace is the span pipeline above.
  /// Any number of named observers attach side by side; attaching the same
  /// name twice REQUIRE-fails. Unattached, it costs one empty() branch.
  using FrameObserver =
      std::function<void(const Packet&, NodeId node, bool transmit)>;
  using FrameObserverMux = obs::ObserverMux<const Packet&, NodeId, bool>;
  void attachFrameObserver(const std::string& name, FrameObserver observer) {
    // The documented wrapper entry point: it forwards the consumer's own
    // literal name. wmsn-lint: allow(observer-contract)
    frameObservers_.attach(name, std::move(observer));
  }
  bool detachFrameObserver(const std::string& name) {
    return frameObservers_.detach(name);
  }
  const FrameObserverMux& frameObservers() const { return frameObservers_; }

  /// Sends through the node's MAC (applies CSMA discipline if configured).
  void sendFrom(NodeId id, Packet packet);
  /// Power-amplified point-to-point send (LEACH cluster-head long haul).
  void sendLongRangeFrom(NodeId from, NodeId to, Packet packet);

  /// Charges a node's CPU budget for `bytes` of cryptographic processing
  /// (SecMLR cost accounting).
  void chargeCrypto(NodeId id, std::size_t bytes);

  /// Moves a gateway (round boundary, §5.1). Requires a gateway id.
  void setGatewayPosition(NodeId id, Point position);

  // --- MediumHost ---------------------------------------------------------
  void chargeTx(NodeId id, double joules) override;
  void chargeRx(NodeId id, double joules) override;
  void deliverFrame(NodeId to, const Packet& packet, NodeId from) override;

 private:
  NodeId addNode(NodeKind kind, Point position);
  void handleDeath(NodeId id);

  sim::Simulator& simulator_;
  std::unique_ptr<RadioModel> radio_;
  SensorNetworkParams params_;
  Rng rng_;
  /// Hot per-node state (position, liveness flags, active set) in
  /// struct-of-arrays layout; nodes_ entries are views over it.
  sim::NodeStateBlock block_;
  std::vector<Battery> batteries_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<NodeId> sensorIds_;
  std::vector<NodeId> gatewayIds_;
  TrafficStats stats_;
  obs::PacketTracer tracer_;
  std::uint64_t uidCounter_ = 0;
  FrameObserverMux frameObservers_;
};

}  // namespace wmsn::net
