#pragma once

#include <unordered_map>
#include <unordered_set>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"

namespace wmsn::routing {

struct SpinParams {
  std::uint8_t maxHops = 32;
  std::size_t advBytes = 8;  ///< metadata descriptor size
};

/// SPIN (§2.2.1, refs [20, 21]): negotiation-based dissemination. "Whenever
/// a node has available data, it broadcasts a description of the data
/// instead of all the data and sends it only to the sensor nodes that
/// express interest" — the three-way ADV → REQ → DATA handshake that fixes
/// classic flooding's implosion (duplicate data transmissions) at the cost
/// of two small control frames per hop.
class SpinRouting final : public RoutingProtocol {
 public:
  SpinRouting(net::SensorNetwork& network, net::NodeId self,
              const NetworkKnowledge& knowledge, SpinParams params = {});

  std::string name() const override { return "spin"; }
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

 private:
  void advertise(std::uint64_t uid, std::uint8_t hops);

  SpinParams params_;
  /// Data this node holds (uid → hops it arrived with).
  std::unordered_map<std::uint64_t, std::uint8_t> cache_;
  /// uids we already requested (suppress duplicate REQs for in-flight data).
  std::unordered_set<std::uint64_t> requested_;
  std::uint32_t seq_ = 0;
};

}  // namespace wmsn::routing
