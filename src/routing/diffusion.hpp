#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"

namespace wmsn::routing {

struct DiffusionParams {
  std::uint8_t maxHops = 32;
};

/// Directed Diffusion (§2.2.1, ref [22]): the sink floods an *interest*;
/// nodes receiving it set up *gradients* (which neighbours the interest
/// came from, at what hop count). A source's first matching reading is sent
/// *exploratory* along every gradient; when a copy reaches the sink, the
/// sink sends a positive *reinforcement* back along the reverse path of the
/// first-arriving copy, and subsequent readings flow unicast down the
/// reinforced gradient only.
///
/// Gateway 0 acts as the interested sink (the paradigm is single-sink by
/// construction, like the paper's flat baselines).
class DiffusionRouting final : public RoutingProtocol {
 public:
  DiffusionRouting(net::SensorNetwork& network, net::NodeId self,
                   const NetworkKnowledge& knowledge,
                   DiffusionParams params = {});

  std::string name() const override { return "diffusion"; }
  void start() override;
  void onRoundStart(std::uint32_t round) override;
  void onTopologyChanged() override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  // Introspection.
  bool reinforced() const { return reinforcedNext_.has_value(); }
  std::size_t gradientCount() const { return gradients_.size(); }

 private:
  bool isSink() const { return self() == knowledge().gatewayIds.front(); }
  void floodInterest();
  void sendExploratory(std::uint64_t uid);
  void sendReinforced(std::uint64_t uid);

  DiffusionParams params_;
  std::uint32_t epoch_ = 0;

  /// Gradient cache: neighbour → hop count of the interest heard from it.
  std::map<net::NodeId, std::uint16_t> gradients_;
  std::uint16_t bestGradientHops_ = 0xffff;

  /// Reverse-path state for reinforcement: per origin, who first handed us
  /// an exploratory copy.
  std::unordered_map<std::uint16_t, net::NodeId> exploratoryFrom_;
  /// After reinforcement: the downstream neighbour for this node's (and its
  /// subtree's) data.
  std::optional<net::NodeId> reinforcedNext_;

  std::unordered_set<std::uint64_t> seenExploratory_;
  std::unordered_set<std::uint16_t> reinforcedOrigins_;  // sink-side dedupe
  std::uint32_t seq_ = 0;
};

}  // namespace wmsn::routing
