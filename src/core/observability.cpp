#include "core/observability.hpp"

#include <algorithm>

#include "core/experiment.hpp"
#include "core/metrics.hpp"

namespace wmsn::core {

obs::RoundSample RoundCursor::sample(Scenario& scenario, std::uint32_t round,
                                     const std::vector<double>& depthEdges) {
  net::SensorNetwork& network = *scenario.network;
  const net::TrafficStats& t = network.stats();
  const net::Medium& medium = network.medium();
  const sim::Time now = scenario.simulator.now();

  obs::RoundSample s;
  s.round = round;
  s.timeSeconds = now.seconds();

  s.generated = t.generated() - prevGenerated_;
  s.delivered = t.delivered() - prevDelivered_;
  s.pdrRound = s.generated > 0 ? static_cast<double>(s.delivered) /
                                     static_cast<double>(s.generated)
                               : 1.0;
  s.pdrCumulative = t.deliveryRatio();
  s.controlBytes = medium.controlBytes() - prevControlBytes_;
  s.dataBytes = medium.dataBytes() - prevDataBytes_;
  s.collisions = medium.framesCorrupted() - prevCollisions_;

  prevGenerated_ = t.generated();
  prevDelivered_ = t.delivered();
  prevControlBytes_ = medium.controlBytes();
  prevDataBytes_ = medium.dataBytes();
  prevCollisions_ = medium.framesCorrupted();

  // One pass over the MACs: drop totals, per-node peaks within the round
  // window (histogram + network-wide peak), and the time-weighted mean depth
  // from the integral delta.
  std::uint64_t queueDrops = 0, macDrops = 0;
  double depthIntegral = 0.0;
  s.queueDepthHist.assign(depthEdges.size() + 1, 0);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    net::Mac& mac = network.node(id).mac();
    queueDrops += mac.queueDrops();
    macDrops += mac.drops();
    depthIntegral += mac.queueDepthIntegral(now);
    const std::size_t peak = mac.takeRoundPeakQueueDepth();
    if (peak == 0) continue;
    const auto it = std::lower_bound(depthEdges.begin(), depthEdges.end(),
                                     static_cast<double>(peak));
    ++s.queueDepthHist[static_cast<std::size_t>(it - depthEdges.begin())];
    s.queuePeakDepth = std::max(s.queuePeakDepth,
                                static_cast<std::uint64_t>(peak));
  }
  s.queueDrops = queueDrops - prevQueueDrops_;
  s.macDrops = macDrops - prevMacDrops_;
  prevQueueDrops_ = queueDrops;
  prevMacDrops_ = macDrops;
  const double windowSeconds = now.seconds() - prevTimeSeconds_;
  if (windowSeconds > 0.0 && network.size() > 0)
    s.queueMeanDepth = (depthIntegral - prevDepthIntegral_) / windowSeconds /
                       static_cast<double>(network.size());
  prevDepthIntegral_ = depthIntegral;
  prevTimeSeconds_ = now.seconds();

  // Per-gateway first deliveries this round, by gateway ordinal.
  s.perGatewayDeliveries.assign(gatewayCount_, 0);
  if (prevPerGateway_.empty()) prevPerGateway_.assign(gatewayCount_, 0);
  const auto& perGateway = t.perGatewayDeliveries();
  for (std::size_t g = 0; g < gatewayCount_; ++g) {
    const net::NodeId gw = network.gatewayIds()[g];
    const auto it = perGateway.find(gw);
    const std::uint64_t total = it == perGateway.end() ? 0 : it->second;
    s.perGatewayDeliveries[g] = total - prevPerGateway_[g];
    prevPerGateway_[g] = total;
  }

  // Energy distribution over sensors, cumulative at the boundary (the D²
  // trajectory of eq. 1).
  const EnergySummary energy = summarizeSensorEnergy(network);
  s.energyMinJ = energy.minJ;
  s.energyMeanJ = energy.meanJ;
  s.energyMaxJ = energy.maxJ;
  s.energyVarianceD2 = energy.varianceD2;
  s.aliveSensors = network.aliveSensorCount();
  s.failedSensors = network.failedSensorCount();
  s.failedGateways = network.failedGatewayCount();
  return s;
}

void fillRegistry(const Scenario& scenario, const RunResult& result,
                  obs::MetricsRegistry& registry) {
  const obs::Labels proto = {{"protocol", result.protocol}};
  const net::SensorNetwork& network = *scenario.network;
  const net::TrafficStats& t = network.stats();

  // --- readings (TrafficStats) and frames (Medium) -------------------------
  registry.counter("wmsn_readings_generated_total", proto)
      .add(result.generated);
  registry.counter("wmsn_readings_delivered_total", proto)
      .add(result.delivered);
  registry.counter("wmsn_duplicate_deliveries_total", proto)
      .add(result.duplicateDeliveries);
  registry.counter("wmsn_control_frames_total", proto)
      .add(result.controlFrames);
  registry.counter("wmsn_data_frames_total", proto).add(result.dataFrames);
  registry.counter("wmsn_control_bytes_total", proto).add(result.controlBytes);
  registry.counter("wmsn_data_bytes_total", proto).add(result.dataBytes);
  registry.counter("wmsn_collisions_total", proto).add(result.collisions);
  registry.counter("wmsn_mac_drops_total", proto).add(result.macDrops);
  registry.counter("wmsn_queue_drops_total", proto).add(result.queueDrops);
  registry.gauge("wmsn_pdr", proto).set(result.deliveryRatio);
  registry.gauge("wmsn_rounds_completed", proto)
      .set(static_cast<double>(result.roundsCompleted));

  for (const auto& [kind, frames] : network.medium().framesByKind()) {
    obs::Labels labels = proto;
    labels.push_back({"kind", net::kindName(kind)});
    registry.counter("wmsn_frames_total", std::move(labels)).add(frames);
  }

  // Hop and latency distributions of first deliveries.
  auto& hops = registry.histogram("wmsn_delivery_hops",
                                  {1, 2, 3, 4, 5, 6, 8, 10, 15}, proto);
  for (const double h : t.hopStats().samples()) hops.observe(h);
  auto& latency = registry.histogram(
      "wmsn_delivery_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}, proto);
  for (const double l : t.latencyStats().samples()) latency.observe(l * 1e3);

  // Load balance: first deliveries per gateway.
  for (std::size_t g = 0; g < network.gatewayIds().size(); ++g) {
    const net::NodeId gw = network.gatewayIds()[g];
    const auto it = result.perGatewayDeliveries.find(gw);
    obs::Labels labels = proto;
    labels.push_back({"gateway", std::to_string(g)});
    registry.counter("wmsn_gateway_deliveries_total", std::move(labels))
        .add(it == result.perGatewayDeliveries.end() ? 0 : it->second);
  }

  // --- MAC queues: nodes that never dropped / never queued are absent -----
  auto& depths = registry.histogram("wmsn_node_peak_queue_depth",
                                    {1, 2, 4, 8, 16, 32}, proto);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const net::Mac& mac = network.node(id).mac();
    if (mac.queueDrops() > 0) {
      obs::Labels labels = proto;
      labels.push_back({"node", std::to_string(id)});
      registry.counter("wmsn_node_queue_drops_total", std::move(labels))
          .add(mac.queueDrops());
    }
    if (mac.peakQueueDepth() > 0)
      depths.observe(static_cast<double>(mac.peakQueueDepth()));
  }

  // --- energy model -------------------------------------------------------
  const EnergySummary& sensors = result.sensorEnergy;
  registry.gauge("wmsn_sensor_energy_total_j", proto).set(sensors.totalJ);
  registry.gauge("wmsn_sensor_energy_mean_j", proto).set(sensors.meanJ);
  registry.gauge("wmsn_sensor_energy_min_j", proto).set(sensors.minJ);
  registry.gauge("wmsn_sensor_energy_max_j", proto).set(sensors.maxJ);
  registry.gauge("wmsn_sensor_energy_variance_d2", proto)
      .set(sensors.varianceD2);
  registry.gauge("wmsn_sensor_energy_jain_fairness", proto)
      .set(sensors.jainFairness);
  registry.gauge("wmsn_alive_sensors", proto)
      .set(static_cast<double>(result.aliveSensors));
  // Consumed energy spread as fractions of the initial budget — the
  // dispersion view behind the D² claim.
  const double budget = scenario.config.energy.initialEnergyJ;
  auto& consumed = registry.histogram(
      "wmsn_sensor_energy_consumed_fraction",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, proto);
  for (const net::NodeId id : network.sensorIds()) {
    const double e = network.node(id).battery().consumedJ();
    consumed.observe(budget > 0.0 ? e / budget : 0.0);
  }

  // --- routing protocols --------------------------------------------------
  if (scenario.config.protocol == ProtocolKind::kSecMlr) {
    registry.counter("wmsn_secmlr_rejected_macs_total", proto)
        .add(result.rejectedMacs);
    registry.counter("wmsn_secmlr_rejected_replays_total", proto)
        .add(result.rejectedReplays);
    registry.counter("wmsn_secmlr_rejected_tesla_total", proto)
        .add(result.rejectedTesla);
  }

  registry.counter("wmsn_events_processed_total", proto)
      .add(result.eventsProcessed);
}

void fillFaultMetrics(const Scenario& scenario, const RunResult& result,
                      obs::MetricsRegistry& registry) {
  const obs::Labels proto = {{"protocol", result.protocol}};
  const FaultSummary& f = result.faults;

  registry.counter("wmsn_fault_sensor_crashes_total", proto)
      .add(f.sensorCrashes);
  registry.counter("wmsn_fault_sensor_recoveries_total", proto)
      .add(f.sensorRecoveries);
  registry.counter("wmsn_fault_gateway_failures_total", proto)
      .add(f.gatewayFailures);
  registry.counter("wmsn_fault_gateway_recoveries_total", proto)
      .add(f.gatewayRecoveries);
  registry.counter("wmsn_fault_link_drops_total", proto)
      .add(f.linkFaultDrops);

  registry.gauge("wmsn_fault_failed_sensors", proto)
      .set(static_cast<double>(f.failedSensorsAtEnd));
  registry.gauge("wmsn_fault_failed_gateways", proto)
      .set(static_cast<double>(f.failedGatewaysAtEnd));
  registry.gauge("wmsn_fault_pdr_during_outage", proto)
      .set(f.pdrDuringOutage);
  registry.gauge("wmsn_fault_unrecovered_outages", proto)
      .set(static_cast<double>(f.unrecoveredOutages));

  // Recovery latencies bucketed in round units so same-config seeds merge:
  // the edges derive from the round duration, not the observed values.
  const double roundS = scenario.config.roundDuration.seconds();
  auto& latency = registry.histogram(
      "wmsn_fault_recovery_latency_s",
      {0.5 * roundS, 1.5 * roundS, 2.5 * roundS, 3.5 * roundS, 5.5 * roundS,
       8.5 * roundS},
      proto);
  for (const double l : f.recoveryLatenciesS) latency.observe(l);
}

void fillPerfMetrics(const std::string& protocol, const obs::PerfStats& perf,
                     obs::MetricsRegistry& registry) {
  const obs::Labels proto = {{"protocol", protocol}};
  for (std::size_t i = 0; i < obs::kPerfCounterCount; ++i) {
    const auto counter = static_cast<obs::PerfCounter>(i);
    registry
        .counter(std::string("wmsn_perf_") + obs::metricName(counter) +
                     "_total",
                 proto)
        .add(perf.value(counter));
  }
}

}  // namespace wmsn::core
