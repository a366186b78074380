#include "core/metrics.hpp"

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace wmsn::core {

namespace {
EnergySummary summarize(const net::SensorNetwork& network,
                        const std::vector<net::NodeId>& ids) {
  EnergySummary out;
  RunningStats stats;
  // Local, so a summary (and every RunResult holding one) stays O(1) in n.
  std::vector<double> consumed;
  consumed.reserve(ids.size());
  for (net::NodeId id : ids) {
    const net::Battery& b = network.node(id).battery();
    const double e = b.consumedJ();
    consumed.push_back(e);
    out.txJ += b.txJ();
    out.rxJ += b.rxJ();
    out.cpuJ += b.cpuJ();
    stats.add(e);
  }
  out.totalJ = stats.sum();
  out.meanJ = stats.mean();
  // The paper's D² (eq. 1) is the raw sum of squared deviations.
  out.varianceD2 =
      stats.variancePopulation() * static_cast<double>(stats.count());
  out.stddevJ = stats.stddev();
  out.minJ = stats.min();
  out.maxJ = stats.max();
  out.jainFairness = jainFairness(consumed);
  return out;
}
}  // namespace

EnergySummary summarizeSensorEnergy(const net::SensorNetwork& network) {
  return summarize(network, network.sensorIds());
}

EnergySummary summarizeGatewayEnergy(const net::SensorNetwork& network) {
  return summarize(network, network.gatewayIds());
}

}  // namespace wmsn::core
