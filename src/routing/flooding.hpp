#pragma once

#include <unordered_set>

#include "routing/protocol.hpp"

namespace wmsn::routing {

struct FloodingParams {
  std::uint8_t maxHops = 32;       ///< TTL cap ("maximum number of hops")
};

/// Classic flooding (§2.2.1): every node rebroadcasts the first copy of each
/// data packet until the TTL expires or a gateway is reached. The textbook
/// baseline — maximal robustness, maximal energy waste (implosion).
class FloodingRouting final : public RoutingProtocol {
 public:
  FloodingRouting(net::SensorNetwork& network, net::NodeId self,
                  const NetworkKnowledge& knowledge,
                  FloodingParams params = {});

  std::string name() const override { return "flooding"; }
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

 private:
  FloodingParams params_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint32_t seq_ = 0;
};

/// Gossiping (§2.2.1): instead of broadcasting, each node relays the packet
/// to ONE randomly selected neighbour — no implosion, but propagation is a
/// random walk ("message propagation takes longer time").
class GossipRouting final : public RoutingProtocol {
 public:
  GossipRouting(net::SensorNetwork& network, net::NodeId self,
                const NetworkKnowledge& knowledge, FloodingParams params = {});

  std::string name() const override { return "gossip"; }
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

 private:
  void relay(net::Packet packet);

  FloodingParams params_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint32_t seq_ = 0;
};

}  // namespace wmsn::routing
