#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "net/energy.hpp"
#include "net/geometry.hpp"
#include "net/mac.hpp"
#include "net/packet.hpp"
#include "sim/node_state.hpp"
#include "util/random.hpp"

namespace wmsn::net {

enum class NodeKind : std::uint8_t {
  kSensor,   ///< 802.15.4-only leaf, battery-limited
  kGateway,  ///< WMG: sink of the sensor tier, router of the mesh tier
};

/// One device in a sensor network: identity, link layer, and an upcall to
/// whatever protocol stack is attached. The hot per-node state the kernel
/// sweeps every round — position, liveness flags, battery — lives in the
/// network's struct-of-arrays sim::NodeStateBlock / battery array; a Node is
/// a view over its slot, so the old per-object accessors keep working while
/// the sweeps run over dense memory.
class Node {
 public:
  using ReceiveHandler = std::function<void(const Packet&, NodeId from)>;

  Node(NodeId id, NodeKind kind, sim::NodeStateBlock& block,
       std::vector<Battery>& batteries, Rng rng);

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }
  bool isGateway() const { return kind_ == NodeKind::kGateway; }

  /// Moved only by SensorNetwork::setGatewayPosition (§5.1: sensors are
  /// static), which keeps the medium's adjacency rows in step.
  Point position() const { return Point{block_->x(id_), block_->y(id_)}; }

  Battery& battery() { return (*batteries_)[id_]; }
  const Battery& battery() const { return (*batteries_)[id_]; }

  bool alive() const { return block_->alive(id_); }
  void kill(sim::Time when);
  std::optional<sim::Time> deathTime() const { return deathTime_; }

  /// Fault injection: a failed node behaves exactly like a dead one (radio
  /// off, no processing) but keeps its battery, and — unlike kill() — the
  /// condition is reversible and does not count toward lifetime metrics
  /// (deathTime stays unset unless the battery actually empties).
  bool failed() const { return block_->failed(id_); }
  void setFailed(bool failed) { block_->setFailed(id_, failed); }

  /// Sleep scheduling (§4.4): a sleeping node's radio is off — it neither
  /// receives nor pays RX energy, but it may still wake briefly to transmit
  /// its own readings (duty-cycled sensing).
  bool sleeping() const { return block_->sleeping(id_); }
  void setSleeping(bool sleeping) { block_->setSleeping(id_, sleeping); }
  /// Awake and alive — what the medium checks before delivering a frame.
  bool listening() const { return block_->listening(id_); }

  void setMac(std::unique_ptr<Mac> mac) { mac_ = std::move(mac); }
  Mac& mac() { return *mac_; }
  const Mac& mac() const { return *mac_; }

  void setReceiveHandler(ReceiveHandler handler) {
    receiveHandler_ = std::move(handler);
  }
  void receive(const Packet& packet, NodeId from) {
    if (alive() && receiveHandler_) receiveHandler_(packet, from);
  }

  Rng& rng() { return rng_; }

 private:
  NodeId id_;
  NodeKind kind_;
  sim::NodeStateBlock* block_;
  std::vector<Battery>* batteries_;
  std::optional<sim::Time> deathTime_;
  std::unique_ptr<Mac> mac_;
  ReceiveHandler receiveHandler_;
  Rng rng_;
};

}  // namespace wmsn::net
