#pragma once

#include <memory>

#include "core/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/packet_trace.hpp"
#include "obs/perf_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"

namespace wmsn::core {

struct RunResult;

/// Everything one run observed beyond the RunResult aggregates, produced
/// when any ScenarioConfig::obs option is on. Carried by RunResult as a
/// shared_ptr so results stay cheap to copy through sweeps.
struct RunObservations {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder timeseries{0};
  obs::Profiler profiler;
  bool profiled = false;
  /// Deterministic work-counter ledger (only when ScenarioConfig::obs.perf).
  obs::PerfStats perf;
  bool perfCounted = false;
  /// Non-deterministic resource telemetry paired with `perf`, never merged
  /// into deterministic outputs.
  obs::ResourceTelemetry telemetry;
  /// Retained packet spans (only when ScenarioConfig::obs.traceSpans).
  obs::PacketTraceLog trace;
};

/// Incremental round sampler: remembers the previous round boundary's
/// cumulative counters so each RoundSample reports per-round deltas. One
/// cursor per run, sampled once per completed round.
class RoundCursor {
 public:
  explicit RoundCursor(std::size_t gatewayCount)
      : gatewayCount_(gatewayCount) {}

  /// Builds the sample for the round that just completed and advances the
  /// cursor, which also starts every MAC's next per-round peak window.
  /// `depthEdges` are the recorder's queue-depth bucket edges.
  obs::RoundSample sample(Scenario& scenario, std::uint32_t round,
                          const std::vector<double>& depthEdges);

 private:
  std::size_t gatewayCount_;
  std::uint64_t prevGenerated_ = 0;
  std::uint64_t prevDelivered_ = 0;
  std::uint64_t prevControlBytes_ = 0;
  std::uint64_t prevDataBytes_ = 0;
  std::uint64_t prevQueueDrops_ = 0;
  std::uint64_t prevMacDrops_ = 0;
  std::uint64_t prevCollisions_ = 0;
  std::vector<std::uint64_t> prevPerGateway_;
  double prevDepthIntegral_ = 0.0;
  double prevTimeSeconds_ = 0.0;
};

/// Fills `registry` under a {protocol} label from `result` (the run's
/// totals, which Experiment::collect just gathered) and from the owners of
/// the per-kind and per-node breakdowns: the medium's frames per kind, each
/// MAC's queue drops and peak depth, each sensor's battery, and the
/// TrafficStats hop and latency samples. Deterministic: every value derives
/// from simulation state, and export order is fixed by the registry.
void fillRegistry(const Scenario& scenario, const RunResult& result,
                  obs::MetricsRegistry& registry);

/// Adds the `wmsn_fault_*` family (crash/recovery counters, outage gauges,
/// the recovery-latency histogram) from a run's FaultSummary. Called only
/// when the scenario's fault plan is active so fault-free metrics exports
/// stay byte-identical to older builds.
void fillFaultMetrics(const Scenario& scenario, const RunResult& result,
                      obs::MetricsRegistry& registry);

/// Adds the `wmsn_perf_*` counter family from a run's PerfStats ledger under
/// a {protocol} label. Deterministic; used only for the dedicated perf
/// export (`--perf-out`) — never mixed into the delivery-metrics registry,
/// so enabling counters cannot perturb an existing metrics file. Takes the
/// protocol name (not a Scenario) so multi-seed merges can fill a registry
/// after the scenarios are gone.
void fillPerfMetrics(const std::string& protocol, const obs::PerfStats& perf,
                     obs::MetricsRegistry& registry);

}  // namespace wmsn::core
