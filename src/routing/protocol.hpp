#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/sensor_network.hpp"

namespace wmsn::routing {

/// Static knowledge shared by all nodes at deployment time: the feasible
/// gateway places (MLR, §5.3) and which node ids are gateways. Real
/// deployments flash this into node firmware; it never changes at runtime.
struct NetworkKnowledge {
  std::vector<net::Point> feasiblePlaces;
  std::vector<net::NodeId> gatewayIds;
};

/// Per-node routing protocol instance. Lives next to its node; all
/// interaction with other nodes goes through packets on the medium.
class RoutingProtocol {
 public:
  RoutingProtocol(net::SensorNetwork& network, net::NodeId self,
                  const NetworkKnowledge& knowledge);
  virtual ~RoutingProtocol() = default;

  RoutingProtocol(const RoutingProtocol&) = delete;
  RoutingProtocol& operator=(const RoutingProtocol&) = delete;

  virtual std::string name() const = 0;

  /// Called once when the simulation starts (before any traffic).
  virtual void start() {}

  /// Called at each round boundary (§5.1: gateways may have moved).
  virtual void onRoundStart(std::uint32_t round) { (void)round; }

  /// Called when the relay topology changed out from under the protocol —
  /// e.g. a §4.4 sleep-schedule epoch put a different set of nodes to
  /// sleep. Protocols should drop cached routes that may traverse
  /// now-sleeping relays.
  virtual void onTopologyChanged() {}

  /// A frame addressed to this node (or broadcast) decoded successfully.
  virtual void onReceive(const net::Packet& packet, net::NodeId from) = 0;

  /// The application asks this sensor to report `appPayload` to the most
  /// appropriate gateway (protocol-specific policy).
  virtual void originate(Bytes appPayload) = 0;

 protected:
  net::NodeId self() const { return self_; }
  net::SensorNetwork& network() { return network_; }
  const net::SensorNetwork& network() const { return network_; }
  const NetworkKnowledge& knowledge() const { return knowledge_; }
  bool isGateway() const;
  bool alive() const { return network_.node(self_).alive(); }
  sim::Time now() const { return network_.simulator().now(); }
  Rng& rng() { return network_.node(self_).rng(); }

  /// Runs `action` after `delay`, unless this node has died meanwhile — a
  /// dead node's timers must not fire protocol logic. A template rather than
  /// a sim::Action parameter so the guard and the action are erased into
  /// one closure: nesting one Action in another would push every guarded
  /// timer past the inline storage onto the heap.
  template <typename F>
  void scheduleAfter(sim::Time delay, F&& action) {
    network_.simulator().schedule(
        delay, [this, action = std::forward<F>(action)]() mutable {
          if (alive()) action();
        });
  }

  /// Builds a packet originated (this hop) by this node.
  net::Packet makePacket(net::PacketKind kind, net::NodeId hopDst,
                         Bytes payload) const;

  void sendBroadcast(net::Packet packet);
  void sendUnicast(net::NodeId nextHop, net::Packet packet);

  /// Broadcast after a random forwarding delay in [0, the network's
  /// configured flood jitter] — standard flood-storm suppression:
  /// neighbours that would otherwise all rebroadcast in the same instant
  /// (and collide) spread out in time.
  void sendBroadcastJittered(net::Packet packet);

  /// Registers a fresh application payload and returns its uid.
  std::uint64_t registerGenerated();
  /// Reports gateway delivery to the metrics sink.
  void reportDelivered(std::uint64_t uid, net::NodeId origin,
                       std::uint32_t hops);

 private:
  net::SensorNetwork& network_;
  net::NodeId self_;
  const NetworkKnowledge& knowledge_;
};

/// Instantiates one protocol per node and wires receive handlers. Owns the
/// protocol objects and the shared knowledge.
class ProtocolStack {
 public:
  using Factory = std::function<std::unique_ptr<RoutingProtocol>(
      net::SensorNetwork&, net::NodeId, const NetworkKnowledge&)>;

  ProtocolStack(net::SensorNetwork& network, NetworkKnowledge knowledge,
                const Factory& factory);

  RoutingProtocol& at(net::NodeId id);
  const NetworkKnowledge& knowledge() const { return knowledge_; }

  void startAll();
  void beginRound(std::uint32_t round);
  void topologyChangedAll();

  /// Replaces the protocol on one node (used by the attack framework to
  /// substitute a compromised stack). The node keeps its id and battery.
  void replace(net::NodeId id, std::unique_ptr<RoutingProtocol> protocol);

 private:
  net::SensorNetwork& network_;
  NetworkKnowledge knowledge_;
  std::vector<std::unique_ptr<RoutingProtocol>> protocols_;
};

}  // namespace wmsn::routing
