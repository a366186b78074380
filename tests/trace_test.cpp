// Tests for the causal packet-trace pipeline: deterministic head sampling,
// the flight-recorder ring and its crash dumps, Chrome-trace JSONL
// round-tripping, thread-count invariance of merged exports, and the trace
// analyzer's agreement with the metrics the simulation reports directly.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/wmsn.hpp"
#include "obs/packet_trace.hpp"
#include "obs/trace_analyze.hpp"
#include "util/require.hpp"

namespace wmsn {
namespace {

core::ScenarioConfig traceConfig() {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 40;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = cfg.height = 120.0;
  cfg.rounds = 3;
  cfg.packetsPerSensorPerRound = 1;
  cfg.seed = 5;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- head sampling -----------------------------------------------------------

TEST(TraceSampling, DeterministicAndMonotone) {
  // Same uid, same answer, every time.
  for (std::uint64_t uid = 1; uid < 200; ++uid)
    EXPECT_EQ(obs::traceSampled(uid, 300), obs::traceSampled(uid, 300));
  // Permille 1000 keeps everything; uid 0 is always kept.
  for (std::uint64_t uid = 0; uid < 200; ++uid)
    EXPECT_TRUE(obs::traceSampled(uid, 1000));
  EXPECT_TRUE(obs::traceSampled(0, 1));
  // Raising the rate never drops a previously sampled uid (head sampling is
  // monotone in permille) and the sampled fraction lands near the target.
  std::size_t at100 = 0;
  std::size_t at500 = 0;
  for (std::uint64_t uid = 1; uid <= 5000; ++uid) {
    const bool s100 = obs::traceSampled(uid, 100);
    const bool s500 = obs::traceSampled(uid, 500);
    if (s100) {
      ++at100;
      EXPECT_TRUE(s500) << "uid " << uid << " sampled at 100 but not 500";
    }
    if (s500) ++at500;
  }
  EXPECT_NEAR(static_cast<double>(at100) / 5000.0, 0.10, 0.03);
  EXPECT_NEAR(static_cast<double>(at500) / 5000.0, 0.50, 0.05);
}

TEST(TraceSampling, TracerRetainsOnlySampledUids) {
  obs::PacketTraceOptions opt;
  opt.retainSpans = true;
  opt.samplePermille = 400;
  obs::PacketTracer tracer(opt);
  std::set<std::uint64_t> expected;
  for (std::uint64_t uid = 1; uid <= 300; ++uid) {
    tracer.emitSpan(obs::TraceSpanKind::kOriginate, 1000 * uid, uid, 3);
    if (obs::traceSampled(uid, 400)) expected.insert(uid);
  }
  std::set<std::uint64_t> retained;
  for (const auto& span : tracer.log().spans) retained.insert(span.uid);
  EXPECT_EQ(retained, expected);
  // uid 0 network-scope events always retained.
  tracer.emitSpan(obs::TraceSpanKind::kGatewayEvict, 7, 0, 3, 41);
  EXPECT_EQ(tracer.log().spans.back().kind,
            obs::TraceSpanKind::kGatewayEvict);
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingKeepsTheMostRecentSpans) {
  obs::FlightRecorder& ring = obs::FlightRecorder::current();
  ring.clear();
  const std::size_t total = obs::FlightRecorder::kCapacity + 37;
  for (std::size_t i = 0; i < total; ++i) {
    obs::PacketSpan span;
    span.uid = i + 1;
    span.timeUs = static_cast<std::int64_t>(i);
    ring.push(span);
  }
  EXPECT_EQ(ring.size(), obs::FlightRecorder::kCapacity);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), obs::FlightRecorder::kCapacity);
  // Oldest-first, ending at the last pushed span.
  EXPECT_EQ(spans.front().uid, total - obs::FlightRecorder::kCapacity + 1);
  EXPECT_EQ(spans.back().uid, total);
  ring.clear();
}

TEST(FlightRecorder, InvariantFailureDumpsTheRing) {
  const std::string path = "/tmp/wmsn_flight_invariant_test.jsonl";
  std::remove(path.c_str());
  obs::setFlightRecorderPath(path);
  obs::FlightRecorder::current().clear();
  obs::PacketSpan span;
  span.uid = 42;
  span.node = 7;
  span.kind = obs::TraceSpanKind::kDrop;
  span.reason = obs::TraceDropReason::kQueueOverflow;
  obs::FlightRecorder::current().push(span);

  // invariantFailed is the plain function behind WMSN_INVARIANT, so this
  // fires in every build configuration, not just -DWMSN_INVARIANTS=ON.
  EXPECT_THROW(detail::invariantFailed("x == y", "trace_test.cpp", 1, ""),
               InvariantError);

  const std::string dump = slurp(path);
  EXPECT_NE(dump.find("flight-recorder"), std::string::npos);
  EXPECT_NE(dump.find("invariant"), std::string::npos);
  const auto parsed = obs::parseTraceJsonl(dump);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].uid, 42u);
  EXPECT_EQ(parsed[0].reason, obs::TraceDropReason::kQueueOverflow);

  obs::setFlightRecorderPath("");  // disarm for the rest of the suite
  obs::FlightRecorder::current().clear();
  std::remove(path.c_str());
}

// --- end-to-end span pipeline ------------------------------------------------

TEST(PacketTrace, RunEmitsLifecycleSpansAndJsonlRoundTrips) {
  auto cfg = traceConfig();
  cfg.obs.traceSpans = true;
  const auto result = core::runScenario(cfg);
  ASSERT_TRUE(result.observations);
  const obs::PacketTraceLog& log = result.observations->trace;
  ASSERT_FALSE(log.spans.empty());
  EXPECT_EQ(log.streamId, cfg.seed);

  std::set<obs::TraceSpanKind> kinds;
  for (const auto& span : log.spans) kinds.insert(span.kind);
  EXPECT_TRUE(kinds.count(obs::TraceSpanKind::kOriginate));
  EXPECT_TRUE(kinds.count(obs::TraceSpanKind::kEnqueue));
  EXPECT_TRUE(kinds.count(obs::TraceSpanKind::kMacTx));
  EXPECT_TRUE(kinds.count(obs::TraceSpanKind::kDeliver));

  // The Chrome-trace JSONL is lossless: parsing it back yields the exact
  // span sequence.
  const auto parsed = obs::parseTraceJsonl(log.jsonl());
  EXPECT_EQ(parsed, log.spans);
}

TEST(PacketTrace, TracingDoesNotPerturbTheRun) {
  auto bare = traceConfig();
  auto traced = traceConfig();
  traced.obs.traceSpans = true;
  const auto a = core::runScenario(bare);
  const auto b = core::runScenario(traced);
  // Span emission draws no RNG and schedules nothing: every simulation
  // outcome must be identical with tracing on.
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_DOUBLE_EQ(a.deliveryRatio, b.deliveryRatio);
  EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
}

TEST(PacketTrace, SampledSpansAreASubsetOfFullTrace) {
  auto full = traceConfig();
  full.obs.traceSpans = true;
  auto sampled = traceConfig();
  sampled.obs.traceSpans = true;
  sampled.obs.traceSamplePermille = 250;
  const auto a = core::runScenario(full);
  const auto b = core::runScenario(sampled);
  ASSERT_TRUE(a.observations && b.observations);
  const auto& fullSpans = a.observations->trace.spans;
  const auto& sampledSpans = b.observations->trace.spans;
  ASSERT_FALSE(sampledSpans.empty());
  EXPECT_LT(sampledSpans.size(), fullSpans.size());
  // Every sampled span appears in the full trace, in the same order.
  std::size_t cursor = 0;
  for (const auto& span : sampledSpans) {
    while (cursor < fullSpans.size() && !(fullSpans[cursor] == span)) ++cursor;
    ASSERT_LT(cursor, fullSpans.size())
        << "sampled span missing from the full trace";
    ++cursor;
  }
  // And the sampling decision matches the pure predicate.
  for (const auto& span : sampledSpans)
    EXPECT_TRUE(obs::traceSampled(span.uid, 250));
}

TEST(PacketTrace, MergedExportIsThreadCountInvariant) {
  auto cfg = traceConfig();
  cfg.obs.traceSpans = true;
  const auto configs = core::expandSeeds(cfg, 4);
  const auto one = core::runScenariosParallel(configs, 1);
  const auto four = core::runScenariosParallel(configs, 4);
  ASSERT_EQ(one.size(), four.size());
  std::string mergedOne;
  std::string mergedFour;
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_TRUE(one[i].observations && four[i].observations);
    mergedOne += one[i].observations->trace.jsonl();
    mergedFour += four[i].observations->trace.jsonl();
  }
  EXPECT_FALSE(mergedOne.empty());
  EXPECT_EQ(mergedOne, mergedFour);
}

// --- analyzer ----------------------------------------------------------------

TEST(TraceAnalyze, ReconstructsPathsReroutesAndDrops) {
  std::vector<obs::PacketSpan> spans;
  auto add = [&](obs::TraceSpanKind kind, std::int64_t us, std::uint64_t uid,
                 std::uint32_t node, std::uint32_t peer = obs::kTraceNoPeer,
                 obs::TraceDropReason reason = obs::TraceDropReason::kNone,
                 std::uint32_t info = 0) {
    obs::PacketSpan s;
    s.kind = kind;
    s.timeUs = us;
    s.uid = uid;
    s.node = node;
    s.peer = peer;
    s.reason = reason;
    s.info = info;
    spans.push_back(s);
  };
  using K = obs::TraceSpanKind;
  using R = obs::TraceDropReason;
  // Reading 1: 3 -> 5 -> 9 (gateway), rerouted once after an ACK loss.
  add(K::kOriginate, 1000, 1, 3);
  add(K::kEnqueue, 1100, 1, 3, 5);
  add(K::kMacTx, 1200, 1, 3, 5);
  add(K::kRecv, 1300, 1, 5, 3);
  add(K::kForward, 1400, 1, 5, 9);
  add(K::kReroute, 5400, 1, 5, 9, R::kAckExhausted, 1);
  add(K::kMacTx, 5500, 1, 5, 9);
  add(K::kRecv, 5600, 1, 9, 5);
  add(K::kDeliver, 5600, 1, 9, 3, R::kNone, 2);
  // Reading 2: dropped at the MAC queue, never delivered.
  add(K::kOriginate, 2000, 2, 4);
  add(K::kEnqueue, 2100, 2, 4, 5);
  add(K::kDrop, 2100, 2, 4, obs::kTraceNoPeer, R::kQueueOverflow);
  // Network-scope gateway eviction.
  add(K::kGatewayEvict, 3000, 0, 7, 9);

  const obs::TraceAnalysis analysis = obs::analyzeSpans(spans);
  EXPECT_EQ(analysis.readings, 2u);
  EXPECT_EQ(analysis.delivered, 1u);
  EXPECT_EQ(analysis.reroutes, 1u);
  EXPECT_EQ(analysis.routeFlaps, 1u);
  EXPECT_EQ(analysis.dropEvents, 1u);
  EXPECT_EQ(analysis.gatewayEvictions, 1u);
  EXPECT_EQ(analysis.dropsByReason.at("queue-overflow"), 1u);

  ASSERT_EQ(analysis.perReading.size(), 2u);
  const obs::ReadingTrace& r1 = analysis.perReading[0];
  EXPECT_EQ(r1.uid, 1u);
  EXPECT_TRUE(r1.delivered);
  EXPECT_EQ(r1.deliverHops, 2u);
  EXPECT_EQ(r1.path, (std::vector<std::uint32_t>{3, 5, 9}));
  EXPECT_EQ(r1.reroutes, 1u);
  // Detection: last transmission-ish span before the reroute was the
  // kForward at 1400us -> 4.0ms; recovery: reroute 5400us -> deliver 5600us.
  EXPECT_NEAR(r1.detectionMs, 4.0, 1e-9);
  EXPECT_NEAR(r1.recoveryMs, 0.2, 1e-9);

  const obs::ReadingTrace& r2 = analysis.perReading[1];
  EXPECT_FALSE(r2.delivered);
  ASSERT_EQ(r2.drops.size(), 1u);
  EXPECT_EQ(r2.drops[0], R::kQueueOverflow);

  const std::string report = obs::analysisReport(analysis);
  EXPECT_NE(report.find("queue-overflow"), std::string::npos);
}

TEST(TraceAnalyze, PathHopsAgreeWithDeliveryHopsMetric) {
  auto cfg = traceConfig();
  cfg.obs.traceSpans = true;
  cfg.obs.metrics = true;
  const auto result = core::runScenario(cfg);
  ASSERT_TRUE(result.observations);

  const obs::TraceAnalysis analysis =
      obs::analyzeSpans(result.observations->trace.spans);
  obs::MetricsRegistry traceReg;
  obs::fillTraceMetrics(analysis, traceReg);

  const obs::Histogram* traced =
      traceReg.findHistogram("wmsn_trace_path_hops");
  const obs::Histogram* direct = result.observations->metrics.findHistogram(
      "wmsn_delivery_hops", {{"protocol", "mlr"}});
  ASSERT_NE(traced, nullptr);
  ASSERT_NE(direct, nullptr);
  // Full sampling: the analyzer saw every first delivery the traffic stats
  // counted, with the same hop counts — bucket for bucket.
  EXPECT_EQ(analysis.delivered, result.delivered);
  EXPECT_EQ(traced->edges(), direct->edges());
  EXPECT_EQ(traced->counts(), direct->counts());
  EXPECT_EQ(traced->count(), direct->count());
}

TEST(TraceAnalyze, ParserRejectsGarbage) {
  EXPECT_THROW(obs::parseTraceJsonl("{\"name\":\"nonsense\",\"ph\":\"b\"}\n"),
               PreconditionError);
  EXPECT_TRUE(obs::parseTraceJsonl("\n\n").empty());

  // Each integer parses into its field's own type: a value that does not
  // fit, or a truncated one, is an error naming the field.
  const auto line = [](const std::string& ts, const std::string& tid,
                       const std::string& peer) {
    return "{\"name\":\"originate\",\"cat\":\"reading\",\"ph\":\"b\","
           "\"ts\":" + ts + ",\"pid\":1,\"tid\":" + tid +
           ",\"id\":5,\"args\":{\"peer\":" + peer +
           ",\"info\":0,\"bytes\":12}}\n";
  };
  const auto spans = obs::parseTraceJsonl(line("-7", "4294967295", "3"));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].timeUs, -7);
  EXPECT_EQ(spans[0].node, 4294967295u);
  EXPECT_EQ(spans[0].uid, 5u);
  EXPECT_EQ(spans[0].peer, 3u);
  const auto expectRejected = [](const std::string& text,
                                 const std::string& key) {
    try {
      obs::parseTraceJsonl(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << text << " threw " << e.what();
    }
  };
  expectRejected(line("1", "99999999999", "3"), "tid");
  expectRejected(line("-", "1", "3"), "ts");
  expectRejected(line("99999999999999999999", "1", "3"), "ts");
  expectRejected(line("1", "1", "-1"), "peer");
  expectRejected(line("1", "1", "4294967296"), "peer");
}

}  // namespace
}  // namespace wmsn
