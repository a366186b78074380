#include "obs/trace_analyze.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::obs {

namespace {

// Bucket edges mirror core/observability.cpp's wmsn_delivery_hops so the
// analyzer's path-hops histogram is directly comparable to the registry's.
const std::vector<double> kHopEdges = {1, 2, 3, 4, 5, 6, 8, 10, 15};
const std::vector<double> kLatencyMsEdges = {1,   5,    10,   50,
                                             100, 500, 1000, 5000};

struct ReadingState {
  ReadingTrace trace;
  std::int64_t lastTxUs = -1;
  std::int64_t firstRerouteUs = -1;
};

Labels withReason(Labels labels, const std::string& reason) {
  labels.emplace_back("reason", reason);
  return labels;
}

// --- minimal parser for our own writer's output ---------------------------

std::size_t findKey(const std::string& line, const std::string& key) {
  return line.find('"' + key + "\":");
}

/// Parses the integer after `"key":` into `out`, which fixes its type and
/// range; false when the key is absent.
template <class T>
bool extractInt(const std::string& line, const std::string& key, T& out) {
  const std::size_t at = findKey(line, key);
  if (at == std::string::npos) return false;
  const std::size_t start = at + key.size() + 3;
  std::size_t end = start;
  while (end < line.size() &&
         (line[end] == '-' || (line[end] >= '0' && line[end] <= '9')))
    ++end;
  out = parseNumber<T>("trace field '" + key + "'",
                       std::string_view(line).substr(start, end - start));
  return true;
}

bool extractString(const std::string& line, const std::string& key,
                   std::string& out) {
  const std::size_t at = findKey(line, key);
  if (at == std::string::npos) return false;
  const std::size_t start = at + key.size() + 4;  // past `"key":"`
  const std::size_t end = line.find('"', start);
  if (start > line.size() || end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

bool parseKind(const std::string& name, TraceSpanKind& out) {
  static const std::map<std::string, TraceSpanKind> kByName = [] {
    std::map<std::string, TraceSpanKind> m;
    for (int k = 0; k <= static_cast<int>(TraceSpanKind::kReject); ++k) {
      const auto kind = static_cast<TraceSpanKind>(k);
      m[toString(kind)] = kind;
    }
    return m;
  }();
  const auto it = kByName.find(name);
  if (it == kByName.end()) return false;
  out = it->second;
  return true;
}

bool parseReason(const std::string& name, TraceDropReason& out) {
  static const std::map<std::string, TraceDropReason> kByName = [] {
    std::map<std::string, TraceDropReason> m;
    for (int r = 0; r <= static_cast<int>(TraceDropReason::kTesla); ++r) {
      const auto reason = static_cast<TraceDropReason>(r);
      m[toString(reason)] = reason;
    }
    return m;
  }();
  const auto it = kByName.find(name);
  if (it == kByName.end()) return false;
  out = it->second;
  return true;
}

}  // namespace

TraceAnalysis analyzeSpans(const std::vector<PacketSpan>& spans) {
  TraceAnalysis out;
  std::map<std::uint64_t, ReadingState> readings;  // uid order

  for (const PacketSpan& span : spans) {
    if (span.uid == 0) {
      if (span.kind == TraceSpanKind::kGatewayEvict) ++out.gatewayEvictions;
      continue;
    }
    if (span.kind == TraceSpanKind::kReject) {
      ++out.rejections;
      ++out.rejectsByReason[toString(span.reason)];
      continue;
    }
    ReadingState& state = readings[span.uid];
    ReadingTrace& r = state.trace;
    r.uid = span.uid;
    switch (span.kind) {
      case TraceSpanKind::kOriginate:
        r.origin = span.node;
        r.originateUs = span.timeUs;
        if (r.path.empty()) r.path.push_back(span.node);
        break;
      case TraceSpanKind::kEnqueue:
      case TraceSpanKind::kForward:
      case TraceSpanKind::kMacTx:
        state.lastTxUs = span.timeUs;
        break;
      case TraceSpanKind::kRecv:
        r.path.push_back(span.node);
        break;
      case TraceSpanKind::kDeliver:
        if (!r.delivered) {
          r.delivered = true;
          r.deliverUs = span.timeUs;
          r.deliverHops = span.info;
        }
        break;
      case TraceSpanKind::kDrop:
        r.drops.push_back(span.reason);
        ++out.dropEvents;
        ++out.dropsByReason[toString(span.reason)];
        break;
      case TraceSpanKind::kReroute:
        ++r.reroutes;
        if (state.firstRerouteUs < 0) {
          state.firstRerouteUs = span.timeUs;
          const std::int64_t since =
              state.lastTxUs >= 0 ? state.lastTxUs : r.originateUs;
          if (since >= 0)
            r.detectionMs = static_cast<double>(span.timeUs - since) * 1e-3;
        }
        break;
      case TraceSpanKind::kDefer:
        ++r.deferrals;
        break;
      case TraceSpanKind::kMacBackoff:
      case TraceSpanKind::kGatewayEvict:
      case TraceSpanKind::kReject:
        break;
    }
  }

  double hopSum = 0.0;
  for (auto& [uid, state] : readings) {
    (void)uid;
    ReadingTrace& r = state.trace;
    ++out.readings;
    out.reroutes += r.reroutes;
    out.deferrals += r.deferrals;
    if (r.delivered) {
      ++out.delivered;
      hopSum += r.deliverHops;
      if (state.firstRerouteUs >= 0)
        r.recoveryMs =
            static_cast<double>(r.deliverUs - state.firstRerouteUs) * 1e-3;
    }
    if (r.reroutes > 0) {
      ++out.routeFlaps;
      if (r.detectionMs >= 0.0) out.detectionMs.push_back(r.detectionMs);
      if (r.recoveryMs >= 0.0) out.recoveryMs.push_back(r.recoveryMs);
    }
    out.perReading.push_back(std::move(r));
  }
  if (out.delivered > 0)
    out.meanPathHops = hopSum / static_cast<double>(out.delivered);
  return out;
}

std::vector<PacketSpan> parseTraceJsonl(const std::string& text) {
  std::vector<PacketSpan> spans;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    std::string name;
    WMSN_REQUIRE_MSG(extractString(line, "name", name),
                     "trace line has no name: " + line);
    if (name == "flight-recorder") continue;  // dump metadata header

    PacketSpan span;
    WMSN_REQUIRE_MSG(parseKind(name, span.kind),
                     "unknown trace span kind: " + name);
    WMSN_REQUIRE_MSG(extractInt(line, "ts", span.timeUs),
                     "trace line has no ts: " + line);
    WMSN_REQUIRE_MSG(extractInt(line, "tid", span.node),
                     "trace line has no tid: " + line);
    extractInt(line, "id", span.uid);
    extractInt(line, "peer", span.peer);
    extractInt(line, "info", span.info);
    extractInt(line, "bytes", span.bytes);
    std::string reason;
    if (extractString(line, "reason", reason))
      WMSN_REQUIRE_MSG(parseReason(reason, span.reason),
                       "unknown trace drop reason: " + reason);
    spans.push_back(span);
  }
  return spans;
}

void fillTraceMetrics(const TraceAnalysis& analysis, MetricsRegistry& registry,
                      const Labels& labels) {
  registry.counter("wmsn_trace_readings_total", labels)
      .add(analysis.readings);
  registry.counter("wmsn_trace_delivered_total", labels)
      .add(analysis.delivered);
  registry.counter("wmsn_trace_reroutes_total", labels)
      .add(analysis.reroutes);
  registry.counter("wmsn_trace_route_flaps_total", labels)
      .add(analysis.routeFlaps);
  registry.counter("wmsn_trace_deferrals_total", labels)
      .add(analysis.deferrals);
  registry.counter("wmsn_trace_gateway_evictions_total", labels)
      .add(analysis.gatewayEvictions);
  for (const auto& [reason, count] : analysis.dropsByReason)
    registry.counter("wmsn_trace_dropped_total", withReason(labels, reason))
        .add(count);
  for (const auto& [reason, count] : analysis.rejectsByReason)
    registry.counter("wmsn_trace_rejected_total", withReason(labels, reason))
        .add(count);

  auto& hops = registry.histogram("wmsn_trace_path_hops", kHopEdges, labels);
  for (const ReadingTrace& r : analysis.perReading)
    if (r.delivered) hops.observe(r.deliverHops);
  auto& detect = registry.histogram("wmsn_trace_reroute_detection_ms",
                                    kLatencyMsEdges, labels);
  for (const double ms : analysis.detectionMs) detect.observe(ms);
  auto& recover = registry.histogram("wmsn_trace_reroute_recovery_ms",
                                     kLatencyMsEdges, labels);
  for (const double ms : analysis.recoveryMs) recover.observe(ms);
}

std::string analysisReport(const TraceAnalysis& analysis) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "trace analysis: " << analysis.readings << " traced readings, "
      << analysis.delivered << " delivered (ratio "
      << analysis.deliveredRatio() << "), mean path hops "
      << analysis.meanPathHops << "\n";
  out << "  drop events: " << analysis.dropEvents;
  for (const auto& [reason, count] : analysis.dropsByReason)
    out << " " << reason << "=" << count;
  out << "\n";
  out << "  reroutes: " << analysis.reroutes << " across "
      << analysis.routeFlaps << " flapped readings; deferrals "
      << analysis.deferrals << "; gateway evictions "
      << analysis.gatewayEvictions << "\n";
  auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  };
  out << "  reroute latency: detection mean " << mean(analysis.detectionMs)
      << " ms (" << analysis.detectionMs.size() << " samples), recovery mean "
      << mean(analysis.recoveryMs) << " ms (" << analysis.recoveryMs.size()
      << " samples)\n";
  if (analysis.rejections > 0) {
    out << "  secmlr rejections: " << analysis.rejections;
    for (const auto& [reason, count] : analysis.rejectsByReason)
      out << " " << reason << "=" << count;
    out << "\n";
  }
  return out.str();
}

}  // namespace wmsn::obs
