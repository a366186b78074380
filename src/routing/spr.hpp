#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"

namespace wmsn::routing {

struct SprParams {
  sim::Time responseWindow = sim::Time::seconds(0.3);  ///< RRES collection
  /// Gateways buffer RREQ copies this long and answer with the min-hop one
  /// (the same collect-timeout SecMLR specifies in §6.2.2); 0 answers the
  /// first copy immediately.
  sim::Time gatewayCollectWindow = sim::Time::seconds(0.1);
  /// Step 3.1: nodes holding a fresh route answer on the gateway's behalf
  /// and suppress the flood. Disable to ablate the optimisation.
  bool answerFromCache = true;
  std::uint32_t maxQueryRetries = 1;
  std::uint8_t maxPathLength = 32;
  /// Fault-resilience hardening: wait this long before the first re-flood
  /// of a failed discovery, doubling per retry (bounded). Zero (default)
  /// keeps the legacy immediate retry. Retries never cross a round boundary
  /// — SPR routes are round-scoped anyway.
  sim::Time retryBackoff = sim::Time::zero();
};

/// SPR — Shortest Path Routing (§5.2). On-demand min-hop routing to the best
/// of the m gateways:
///
///  1. A source with no fresh route floods an RREQ addressed to all
///     gateways, accumulating the traversed path.
///  2. A sensor that already knows a fresh route replies on the gateway's
///     behalf by appending its stored sub-path (Property 1: sub-paths of
///     shortest paths are shortest), instead of re-flooding.
///  3. Gateways reply to the first RREQ copy (first arrival ≈ min hops under
///     BFS flooding) with the completed path.
///  4. The source collects responses for a window and picks the gateway with
///     the fewest hops.
///  5. The first data packet carries the source route; nodes along it
///     install routing entries so follow-up packets need no route header.
///
/// Routes are valid for the current round only (§5.1: gateways may move at
/// round boundaries), giving the paper's table-driven/on-demand hybrid.
class SprRouting final : public RoutingProtocol {
 public:
  SprRouting(net::SensorNetwork& network, net::NodeId self,
             const NetworkKnowledge& knowledge, SprParams params = {});

  std::string name() const override { return "spr"; }
  void onRoundStart(std::uint32_t round) override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  /// Test/bench introspection: hops of the chosen route, if any.
  std::optional<std::uint16_t> currentRouteHops() const;
  std::optional<net::NodeId> currentBestGateway() const;

 private:
  struct StoredRoute {
    Path path;            ///< [self, …, gateway]
    std::uint32_t round = 0;
  };

  bool routeFresh() const;
  void startQuery();
  void finishQuery();
  void sendData(std::uint64_t uid, Bytes reading);
  void handleRreq(const net::Packet& packet, net::NodeId from);
  void handleRres(const net::Packet& packet);
  void handleData(const net::Packet& packet);
  void installFromPath(const Path& path, std::size_t selfIndex,
                       std::uint16_t gateway);

  SprParams params_;
  std::uint32_t round_ = 0;

  // Source-side state.
  std::optional<StoredRoute> route_;       ///< to the chosen best gateway
  std::uint16_t routeGateway_ = 0;
  bool routeAnnounced_ = false;            ///< first DATA carried the path
  std::uint32_t reqId_ = 0;
  bool queryInFlight_ = false;
  std::uint32_t queryRetries_ = 0;
  std::vector<RresMsg> responses_;
  std::vector<std::pair<std::uint64_t, Bytes>> dataQueue_;
  std::uint32_t seq_ = 0;

  // Forwarding state (per round).
  std::unordered_map<std::uint16_t, net::NodeId> nextHopTo_;  ///< by gateway
  std::unordered_map<std::uint16_t, StoredRoute> knownPaths_; ///< by gateway
  std::unordered_set<std::uint64_t> seenRreq_;  ///< (origin<<32)|reqId

  // Gateway-side RREQ collection (one bucket per (origin<<32)|reqId).
  std::unordered_map<std::uint64_t, std::vector<Path>> collecting_;
  void gatewayAnswer(std::uint16_t origin, std::uint32_t reqId);
};

}  // namespace wmsn::routing
