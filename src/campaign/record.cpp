#include "campaign/record.hpp"

#include <algorithm>
#include <iterator>
#include <type_traits>

#include "obs/trace_analyze.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::campaign {

namespace {

// Fields separated by US (\x1f). The metrics wire blob rides as the FINAL
// field: it contains its own RS/US/GS framing, so the decoder reads the
// fixed fields one by one and keeps the tail intact.
constexpr char kSep = '\x1f';
constexpr const char* kTag = "wmsnrec3";

using G = RecordField::Group;

// The wmsnrec3 scalar fields, in wire order. Adding, removing, reordering or
// retyping a row changes the journal format and so needs a new kTag.
constexpr RecordField kFields[] = {
    {&RunRecord::pdr, "pdr", G::kAlways, true},
    {&RunRecord::meanLatencyMs, "mean_latency_ms"},
    {&RunRecord::p95LatencyMs, "p95_latency_ms"},
    {&RunRecord::meanHops, "mean_hops"},
    {&RunRecord::offeredPps, "offered_pps", G::kAlways, true},
    {&RunRecord::goodputPps, "goodput_pps"},
    {&RunRecord::generated, "generated"},
    {&RunRecord::delivered, "delivered"},
    {&RunRecord::queueDrops, "queue_drops", G::kAlways, true},
    {&RunRecord::macDrops, "mac_drops"},
    {&RunRecord::collisions, "collisions"},
    {&RunRecord::controlBytes, "control_bytes"},
    {&RunRecord::dataBytes, "data_bytes"},
    {&RunRecord::roundsCompleted, "rounds_completed", G::kAlways, true},
    {&RunRecord::firstDeathObserved, "first_death_observed"},
    {&RunRecord::lifetimeS, "lifetime_s"},
    {&RunRecord::energyTotalJ, "energy_total_j", G::kAlways, true},
    {&RunRecord::energyD2, "energy_d2"},
    {&RunRecord::outageEpisodes, "outage_episodes", G::kAlways, true},
    {&RunRecord::meanRecoveryLatencyS, "mean_recovery_latency_s"},
    {&RunRecord::pdrDuringOutage, "pdr_during_outage"},
    {&RunRecord::traceSpans, "trace_spans", G::kTrace, true},
    {&RunRecord::traceReadings, "trace_readings", G::kTrace},
    {&RunRecord::traceReroutes, "trace_reroutes", G::kTrace},
    {&RunRecord::traceDropEvents, "trace_drop_events", G::kTrace},
    {&RunRecord::traceMeanPathHops, "trace_mean_path_hops", G::kTrace},
    {&RunRecord::perfCaptured, "perf_captured", G::kWireOnly},
    // Deterministic work counters first, then the machine-dependent
    // telemetry (RSS, wall seconds, derived rates).
    {&RunRecord::perfNodeSteps, "perf_node_steps", G::kPerf, true},
    {&RunRecord::perfFramesTransmitted, "perf_frames_transmitted", G::kPerf},
    {&RunRecord::perfPairsExamined, "perf_pairs_examined", G::kPerf},
    {&RunRecord::perfRngDraws, "perf_rng_draws", G::kPerf},
    {&RunRecord::perfPeakRssKb, "perf_peak_rss_kb", G::kPerf, true},
    {&RunRecord::perfWallSeconds, "perf_wall_seconds", G::kPerf},
    {&RunRecord::perfRoundsPerSec, "perf_rounds_per_sec", G::kPerf},
    {&RunRecord::perfFramesPerSec, "perf_frames_per_sec", G::kPerf},
};

std::string wireText(std::uint64_t v) { return std::to_string(v); }
std::string wireText(std::uint32_t v) { return std::to_string(v); }
std::string wireText(double v) { return wireDouble(v); }
std::string wireText(bool v) { return v ? "1" : "0"; }

/// Parses text written by wireText. Malformed text, and integers that do not
/// fit T, throw PreconditionError naming the field `key`.
template <class T>
T parseWire(const std::string& text, const char* key) {
  const auto malformed = [&] {
    return std::string("malformed run-record field ") + key + ": '" + text +
           "'";
  };
  if constexpr (std::is_same_v<T, bool>) {
    WMSN_REQUIRE_MSG(text == "0" || text == "1", malformed());
    return text == "1";
  } else if constexpr (std::is_same_v<T, double>) {
    try {
      return parseWireDouble(text);
    } catch (const PreconditionError&) {
      throw PreconditionError(malformed());
    }
  } else {
    return parseNumber<T>(key, text);
  }
}

void appendField(std::string& out, const std::string& field) {
  out += kSep;
  out += field;
}

/// Identity strings and error messages must survive the line framing: no
/// newlines, no US. (They are code-authored labels and exception texts.)
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
    out += (c == '\n' || c == '\r' || c == kSep) ? ' ' : c;
  return out;
}

}  // namespace

double RecordField::number(const RunRecord& record) const {
  return std::visit(
      [&](auto m) { return static_cast<double>(record.*m); }, member);
}

std::span<const RecordField> recordFields() { return kFields; }

const RecordField& recordField(std::string_view key) {
  const auto* it = std::find_if(
      std::begin(kFields), std::end(kFields),
      [&](const RecordField& field) { return key == field.key; });
  WMSN_REQUIRE_MSG(it != std::end(kFields),
                   "unknown run-record field: " + std::string(key));
  return *it;
}

RunRecord makeRecord(const std::string& id, const std::string& cell,
                     std::uint64_t seed, std::uint32_t seedIndex,
                     const core::RunResult& result, double totalSimSeconds) {
  RunRecord r;
  r.id = id;
  r.cell = cell;
  r.seed = seed;
  r.seedIndex = seedIndex;
  r.status = RunRecord::Status::kOk;
  r.pdr = result.deliveryRatio;
  r.meanLatencyMs = result.meanLatencyMs;
  r.p95LatencyMs = result.p95LatencyMs;
  r.meanHops = result.meanHops;
  r.offeredPps = result.offeredPps;
  r.goodputPps = result.goodputPps;
  r.generated = result.generated;
  r.delivered = result.delivered;
  r.queueDrops = result.queueDrops;
  r.macDrops = result.macDrops;
  r.collisions = result.collisions;
  r.controlBytes = result.controlBytes;
  r.dataBytes = result.dataBytes;
  r.roundsCompleted = result.roundsCompleted;
  r.firstDeathObserved = result.firstDeathObserved;
  r.lifetimeS =
      result.firstDeathObserved ? result.firstDeathSeconds : totalSimSeconds;
  r.energyTotalJ = result.sensorEnergy.totalJ;
  r.energyD2 = result.sensorEnergy.varianceD2;
  r.outageEpisodes = result.faults.outageEpisodes;
  r.meanRecoveryLatencyS = result.faults.meanRecoveryLatencyS;
  r.pdrDuringOutage = result.faults.pdrDuringOutage;
  if (result.observations) {
    r.metricsWire = result.observations->metrics.wire();
    if (result.observations->perfCounted) {
      const obs::PerfStats& perf = result.observations->perf;
      const obs::ResourceTelemetry& tel = result.observations->telemetry;
      r.perfCaptured = true;
      r.perfNodeSteps = perf.value(obs::PerfCounter::kNodeSteps);
      r.perfFramesTransmitted =
          perf.value(obs::PerfCounter::kFramesTransmitted);
      r.perfPairsExamined = perf.value(obs::PerfCounter::kPairsExamined);
      r.perfRngDraws = perf.value(obs::PerfCounter::kRngDraws);
      r.perfPeakRssKb = tel.peakRssKb;
      r.perfWallSeconds = tel.wallSeconds;
      r.perfRoundsPerSec = tel.roundsPerSec();
      r.perfFramesPerSec = tel.framesPerSec();
    }
    const auto& spans = result.observations->trace.spans;
    if (!spans.empty()) {
      const obs::TraceAnalysis analysis = obs::analyzeSpans(spans);
      r.traceSpans = spans.size();
      r.traceReadings = analysis.readings;
      r.traceReroutes = analysis.reroutes;
      r.traceDropEvents = analysis.dropEvents;
      r.traceMeanPathHops = analysis.meanPathHops;
    }
  }
  return r;
}

RunRecord makeFailedRecord(const std::string& id, const std::string& cell,
                           std::uint64_t seed, std::uint32_t seedIndex,
                           const std::string& error) {
  RunRecord r;
  r.id = id;
  r.cell = cell;
  r.seed = seed;
  r.seedIndex = seedIndex;
  r.status = RunRecord::Status::kFailed;
  r.error = error;
  return r;
}

std::string encodeRecord(const RunRecord& record) {
  std::string out = kTag;
  appendField(out, sanitize(record.id));
  appendField(out, sanitize(record.cell));
  appendField(out, wireText(record.seed));
  appendField(out, wireText(record.seedIndex));
  appendField(out, record.ok() ? "ok" : "failed");
  appendField(out, sanitize(record.error));
  for (const RecordField& field : kFields)
    std::visit([&](auto m) { appendField(out, wireText(record.*m)); },
               field.member);
  appendField(out, std::to_string(record.metricsWire.size()));
  out += kSep;
  out += record.metricsWire;
  WMSN_REQUIRE_MSG(out.find('\n') == std::string::npos,
                   "run record encoding may not contain newlines");
  return out;
}

RunRecord decodeRecord(const std::string& line) {
  std::size_t start = 0;
  const auto next = [&] {
    const std::size_t pos = line.find(kSep, start);
    WMSN_REQUIRE_MSG(pos != std::string::npos, "truncated run record");
    std::string field = line.substr(start, pos - start);
    start = pos + 1;
    return field;
  };
  WMSN_REQUIRE_MSG(next() == kTag,
                   "run record missing '" + std::string(kTag) + "' tag");
  RunRecord r;
  r.id = next();
  r.cell = next();
  r.seed = parseWire<std::uint64_t>(next(), "seed");
  r.seedIndex = parseWire<std::uint32_t>(next(), "seed_index");
  const std::string status = next();
  WMSN_REQUIRE_MSG(status == "ok" || status == "failed",
                   "run record has unknown status '" + status + "'");
  r.status = status == "ok" ? RunRecord::Status::kOk : RunRecord::Status::kFailed;
  r.error = next();
  for (const RecordField& field : kFields)
    std::visit(
        [&](auto m) {
          using T = std::remove_reference_t<decltype(r.*m)>;
          r.*m = parseWire<T>(next(), field.key);
        },
        field.member);
  const auto wireLen = parseWire<std::uint64_t>(next(), "metrics_length");
  r.metricsWire = line.substr(start);
  WMSN_REQUIRE_MSG(r.metricsWire.size() == wireLen,
                   "run record metrics blob length mismatch");
  return r;
}

}  // namespace wmsn::campaign
