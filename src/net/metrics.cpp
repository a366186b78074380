#include "net/metrics.hpp"

namespace wmsn::net {

void TrafficStats::onGenerated(std::uint64_t uid, NodeId /*origin*/,
                               sim::Time when) {
  ++generated_;
  genTime_.emplace(uid, when);
}

bool TrafficStats::onDelivered(std::uint64_t uid, NodeId origin,
                               NodeId gateway, std::uint32_t hops,
                               sim::Time when) {
  if (!deliveredUids_.insert(uid).second) {
    ++duplicateDeliveries_;
    return false;
  }
  hops_.add(static_cast<double>(hops));
  auto it = genTime_.find(uid);
  if (it != genTime_.end())
    latency_.add((when - it->second).seconds());
  ++perGateway_[gateway];
  if (onFirstDelivery_) onFirstDelivery_(uid, origin, gateway, when);
  return true;
}

double TrafficStats::deliveryRatio() const {
  if (generated_ == 0) return 1.0;
  return static_cast<double>(delivered()) / static_cast<double>(generated_);
}

}  // namespace wmsn::net
