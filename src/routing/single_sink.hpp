#pragma once

#include <optional>
#include <unordered_set>

#include "routing/protocol.hpp"

namespace wmsn::routing {

/// Minimum-cost forwarding toward a single sink (MCFA, §2.2.1 — the flat
/// single-sink architecture the paper argues against). The sink floods a
/// hop-count beacon; every node keeps its least cost and the neighbour it
/// heard it from; data descends the cost gradient. Re-beaconed every round
/// so the field adapts to node deaths.
///
/// Only gateway 0 participates as the sink — extra gateways are ignored,
/// which is exactly what makes this the "single point of failure" baseline
/// for the ROBUST experiment.
class SingleSinkRouting final : public RoutingProtocol {
 public:
  SingleSinkRouting(net::SensorNetwork& network, net::NodeId self,
                    const NetworkKnowledge& knowledge);

  std::string name() const override { return "single-sink"; }
  void start() override;
  void onRoundStart(std::uint32_t round) override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  std::optional<std::uint16_t> costToSink() const { return cost_; }

 private:
  bool isTheSink() const;
  void beacon();

  std::uint32_t epoch_ = 0;
  std::optional<std::uint16_t> cost_;
  std::optional<net::NodeId> parent_;
  std::uint32_t seq_ = 0;
  std::unordered_set<std::uint64_t> deliveredSeen_;
};

}  // namespace wmsn::routing
