#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace wmsn::net {

/// Network-wide reading accounting, fed by the routing protocols: readings
/// generated and delivered, their hops, latency and gateway. Delivery is
/// deduplicated by packet uid (flooding delivers many copies; the
/// application counts a reading once). Link-level facts live with their
/// layer: frames, bytes and collisions in net::Medium, channel-access and
/// queue drops and queue depths in each node's net::Mac.
class TrafficStats {
 public:
  void onGenerated(std::uint64_t uid, NodeId origin, sim::Time when);

  /// Records a delivery at a gateway. Returns true if this uid was delivered
  /// for the first time.
  bool onDelivered(std::uint64_t uid, NodeId origin, NodeId gateway,
                   std::uint32_t hops, sim::Time when);

  std::uint64_t generated() const { return generated_; }
  std::uint64_t delivered() const { return deliveredUids_.size(); }
  double deliveryRatio() const;

  /// Deliveries of an already-delivered uid — what a replay attack inflates
  /// when the protocol lacks freshness counters.
  std::uint64_t duplicateDeliveries() const { return duplicateDeliveries_; }

  /// Hop counts of first deliveries.
  const SampleStats& hopStats() const { return hops_; }
  /// End-to-end latency (generation → first gateway delivery), seconds.
  const SampleStats& latencyStats() const { return latency_; }
  /// First-delivery count per gateway — the load-balance view (§4.3).
  const std::map<NodeId, std::uint64_t>& perGatewayDeliveries() const {
    return perGateway_;
  }

  /// Invoked on each FIRST delivery of a uid — the hook the three-tier
  /// WMSN stack uses to hand the reading from the sensor tier to the mesh
  /// tier at the receiving gateway.
  using DeliveryCallback = std::function<void(
      std::uint64_t uid, NodeId origin, NodeId gateway, sim::Time when)>;
  void setDeliveryCallback(DeliveryCallback cb) {
    onFirstDelivery_ = std::move(cb);
  }

 private:
  DeliveryCallback onFirstDelivery_;
  std::uint64_t generated_ = 0;
  std::uint64_t duplicateDeliveries_ = 0;
  std::unordered_map<std::uint64_t, sim::Time> genTime_;
  std::unordered_set<std::uint64_t> deliveredUids_;
  SampleStats hops_;
  SampleStats latency_;
  std::map<NodeId, std::uint64_t> perGateway_;
};

}  // namespace wmsn::net
