#pragma once

#include <optional>
#include <vector>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"

namespace wmsn::routing {

struct PegasisParams {
  /// When each round's gathering sweep starts (must leave room before the
  /// round ends; readings sensed after the sweep ride the next round).
  sim::Time sweepStart = sim::Time::seconds(14.0);
  /// How long the leader waits after the first arriving bundle for the
  /// sweep from the other chain arm.
  sim::Time leaderHoldoff = sim::Time::seconds(0.5);
};

/// PEGASIS (§2.2.2, ref [25]): "nodes need only communicate with their
/// closest neighbors and they take turns in communicating with the sink."
/// All sensors form one greedy chain (built farthest-from-sink first).
/// Readings buffer locally; once per round a gathering sweep starts at both
/// chain ends and fuses everything toward the round's designated leader,
/// which makes the single long-haul transmission to the sink. Readings
/// sensed after the sweep ride the next round's sweep (the protocol's
/// inherent latency/energy trade).
///
/// Chain links and the leader's uplink are power-controlled point links
/// (they pay the true-distance amplifier cost), which is what limits
/// PEGASIS on large fields — same trade-off the paper notes for LEACH.
class PegasisRouting final : public RoutingProtocol {
 public:
  PegasisRouting(net::SensorNetwork& network, net::NodeId self,
                 const NetworkKnowledge& knowledge,
                 PegasisParams params = {});

  std::string name() const override { return "pegasis"; }
  void onRoundStart(std::uint32_t round) override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  // Introspection for tests.
  std::optional<net::NodeId> chainPrev() const { return prev_; }
  std::optional<net::NodeId> chainNext() const { return next_; }
  bool isLeader() const { return isLeader_; }

 private:
  /// Deterministic greedy chain over all alive sensors; every node computes
  /// the same chain from shared knowledge (ids + positions are static).
  void buildChain();
  net::NodeId sinkFor() const;
  void passAlong(AggregateMsg aggregate, std::uint8_t hops);
  void scheduleLeaderFlush();

  PegasisParams params_;
  std::uint32_t round_ = 0;
  std::vector<net::NodeId> chain_;
  std::optional<net::NodeId> prev_;  ///< toward the chain's far end
  std::optional<net::NodeId> next_;  ///< toward the leader
  bool isLeader_ = false;
  std::size_t chainIndex_ = 0;
  std::size_t leaderIndex_ = 0;
  AggregateMsg pending_;             ///< readings waiting for the pass
  bool flushScheduled_ = false;
  std::uint32_t seq_ = 0;
};

}  // namespace wmsn::routing
