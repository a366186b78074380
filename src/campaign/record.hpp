#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/experiment.hpp"

namespace wmsn::campaign {

/// What one campaign run reports back from its worker process: identity,
/// status, the scalar metrics the statistics layer aggregates, and (when
/// the spec enabled `metrics = on`) the run's MetricsRegistry in wire form
/// for the seed-order merge in the parent. This is also exactly what a
/// journal line stores, so a resumed campaign aggregates byte-identically
/// to an uninterrupted one.
struct RunRecord {
  enum class Status : std::uint8_t { kOk, kFailed };

  std::string id;
  std::string cell;
  std::uint64_t seed = 0;
  std::uint32_t seedIndex = 0;
  Status status = Status::kOk;
  std::string error;  ///< failure reason; empty when ok

  // Traffic & delivery.
  double pdr = 0.0;
  double meanLatencyMs = 0.0;
  double p95LatencyMs = 0.0;
  double meanHops = 0.0;
  double offeredPps = 0.0;
  double goodputPps = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t macDrops = 0;
  std::uint64_t collisions = 0;
  std::uint64_t controlBytes = 0;
  std::uint64_t dataBytes = 0;
  std::uint32_t roundsCompleted = 0;

  // Lifetime (censored at end-of-run when no sensor died).
  bool firstDeathObserved = false;
  double lifetimeS = 0.0;

  // Energy.
  double energyTotalJ = 0.0;
  double energyD2 = 0.0;

  // Fault recovery.
  std::uint64_t outageEpisodes = 0;
  double meanRecoveryLatencyS = 0.0;
  double pdrDuringOutage = 1.0;

  // Causal-trace summary (zero unless the spec enabled `trace = on`):
  // analyzer aggregates over the run's retained spans, journaled so a
  // resumed campaign reports them without re-running.
  std::uint64_t traceSpans = 0;
  std::uint64_t traceReadings = 0;
  std::uint64_t traceReroutes = 0;
  std::uint64_t traceDropEvents = 0;
  double traceMeanPathHops = 0.0;

  // Perf summary (zero unless the spec enabled `perf = on`): the
  // deterministic work counters that define the kernel-scaling curve, plus
  // the run's resource telemetry. The counters aggregate deterministically;
  // the telemetry (RSS, wall, rates) is diagnostic and never enters the
  // deterministic artifact-metrics merge.
  bool perfCaptured = false;
  std::uint64_t perfNodeSteps = 0;
  std::uint64_t perfFramesTransmitted = 0;
  std::uint64_t perfPairsExamined = 0;
  std::uint64_t perfRngDraws = 0;
  std::uint64_t perfPeakRssKb = 0;
  double perfWallSeconds = 0.0;
  double perfRoundsPerSec = 0.0;
  double perfFramesPerSec = 0.0;

  /// obs::MetricsRegistry::wire() of the run's registry; empty when the
  /// spec did not enable metrics.
  std::string metricsWire;

  bool ok() const { return status == Status::kOk; }
  bool operator==(const RunRecord&) const = default;
};

/// One row of the scalar-field table (pdr through perfFramesPerSec) that
/// drives the wire codec, the artifact run row and the artifact's
/// cell/delta metric lookups.
struct RecordField {
  /// When the artifact run row shows the field. Trace and perf summaries
  /// appear only for runs that captured them, so other artifacts stay
  /// byte-identical to older builds.
  enum class Group : std::uint8_t {
    kAlways,
    kTrace,     ///< when traceSpans > 0
    kPerf,      ///< when perfCaptured
    kWireOnly,  ///< never (perfCaptured itself)
  };

  std::variant<std::uint64_t RunRecord::*, std::uint32_t RunRecord::*,
               double RunRecord::*, bool RunRecord::*>
      member;
  const char* key;  ///< artifact key; also names the field in decode errors
  Group group = Group::kAlways;
  bool breakBefore = false;  ///< artifact row starts a new line before it

  double number(const RunRecord& record) const;  ///< as a statistics sample
};

/// The scalar fields, in wire order.
std::span<const RecordField> recordFields();

/// The field with artifact key `key`; throws PreconditionError if none.
const RecordField& recordField(std::string_view key);

/// Builds an ok-record from a finished run. `totalSimSeconds` censors the
/// lifetime metric when no sensor died.
RunRecord makeRecord(const std::string& id, const std::string& cell,
                     std::uint64_t seed, std::uint32_t seedIndex,
                     const core::RunResult& result, double totalSimSeconds);

/// Builds a failed-record (worker crash or in-run exception).
RunRecord makeFailedRecord(const std::string& id, const std::string& cell,
                           std::uint64_t seed, std::uint32_t seedIndex,
                           const std::string& error);

/// Single-line, newline-free, lossless encoding (doubles as hexfloat) used
/// on the worker result pipe and in the journal. decodeRecord is its exact
/// inverse; it throws PreconditionError, naming the field, on malformed
/// input.
std::string encodeRecord(const RunRecord& record);
RunRecord decodeRecord(const std::string& line);

}  // namespace wmsn::campaign
