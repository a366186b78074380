#pragma once

#include <optional>
#include <vector>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"

namespace wmsn::routing {

struct LeachParams {
  double clusterHeadFraction = 0.05;  ///< LEACH's p
  sim::Time advertWindow = sim::Time::seconds(0.5);
  sim::Time joinWindow = sim::Time::seconds(0.5);
  sim::Time aggregateDelay = sim::Time::seconds(2.0);
};

/// LEACH (§2.2.2, ref [17]): 2-level clustering with randomised cluster-head
/// rotation. Each round, nodes elect themselves cluster head with the LEACH
/// threshold T(n); heads advertise; members join the closest head and send
/// their readings to it single-hop (power-controlled); heads aggregate and
/// send one long-haul transmission to the nearest gateway. Nodes that hear
/// no advertisement fall back to transmitting directly to the gateway.
///
/// This is the hierarchical baseline: it balances energy via rotation but —
/// as the paper notes — "is not applicable to networks deployed in large
/// regions" because the member→head and head→sink hops pay the d²/d⁴
/// amplifier cost over long distances.
class LeachRouting : public RoutingProtocol {
 public:
  LeachRouting(net::SensorNetwork& network, net::NodeId self,
               const NetworkKnowledge& knowledge, LeachParams params = {});

  std::string name() const override { return "leach"; }
  void onRoundStart(std::uint32_t round) override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  bool isClusterHead() const { return isHead_; }

 private:
  bool electSelf(std::uint32_t round);
  net::NodeId nearestGateway() const;
  void flushAggregate();
  void sendDirect(std::uint64_t uid, Bytes reading);

  LeachParams params_;
  std::uint32_t round_ = 0;
  bool isHead_ = false;
  std::optional<std::uint32_t> lastHeadRound_;
  std::optional<net::NodeId> myHead_;
  double myHeadDistance_ = 0.0;
  std::vector<AggregateMsg::Entry> pendingAggregate_;
  bool flushScheduled_ = false;
  std::uint32_t seq_ = 0;
};

}  // namespace wmsn::routing
