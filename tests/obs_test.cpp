// Tests for wmsn::obs — the metrics registry, per-round time series,
// pluggable trace sinks, the observer mux, and the phase profiler — plus
// their wiring through ScenarioConfig::obs and the Experiment.

#include <gtest/gtest.h>

#include <thread>

#include "core/wmsn.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace wmsn {
namespace {

// --- MetricsRegistry ----------------------------------------------------------

TEST(Metrics, LabelKeyIsOrderInsensitive) {
  EXPECT_EQ(obs::labelKey({{"b", "2"}, {"a", "1"}}),
            obs::labelKey({{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(obs::labelKey({{"a", "1"}, {"b", "2"}}), "a=1,b=2");
  EXPECT_EQ(obs::labelKey({}), "");
}

TEST(Metrics, SameNameDifferentLabelsAreDistinct) {
  obs::MetricsRegistry registry;
  registry.counter("frames", {{"node", "1"}}).add(3);
  registry.counter("frames", {{"node", "2"}}).add(5);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.findCounter("frames", {{"node", "1"}})->value(), 3u);
  EXPECT_EQ(registry.findCounter("frames", {{"node", "2"}})->value(), 5u);
  // Label order does not create a new metric.
  registry.counter("pair", {{"a", "1"}, {"b", "2"}}).add(1);
  registry.counter("pair", {{"b", "2"}, {"a", "1"}}).add(1);
  EXPECT_EQ(registry.findCounter("pair", {{"a", "1"}, {"b", "2"}})->value(),
            2u);
}

TEST(Metrics, FindReturnsNullForAbsentOrWrongKind) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(1);
  registry.gauge("g").set(2.0);
  EXPECT_EQ(registry.findCounter("absent"), nullptr);
  EXPECT_EQ(registry.findCounter("g"), nullptr);   // wrong kind
  EXPECT_EQ(registry.findGauge("c"), nullptr);     // wrong kind
  EXPECT_NE(registry.findGauge("g"), nullptr);
}

TEST(Metrics, MergeAddsCountersAndHistogramsGaugesLatestWin) {
  obs::MetricsRegistry a;
  a.counter("events").add(10);
  a.gauge("pdr").set(0.5);
  a.histogram("hops", {1, 2, 4}).observe(3.0);

  obs::MetricsRegistry b;
  b.counter("events").add(7);
  b.counter("only_in_b").add(1);
  b.gauge("pdr").set(0.75);
  b.histogram("hops", {1, 2, 4}).observe(1.0);

  a.merge(b);
  EXPECT_EQ(a.findCounter("events")->value(), 17u);
  EXPECT_EQ(a.findCounter("only_in_b")->value(), 1u);
  EXPECT_DOUBLE_EQ(a.findGauge("pdr")->value(), 0.75);
  const obs::Histogram* h = a.findHistogram("hops");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->counts()[0], 1u);  // the 1.0 from b
  EXPECT_EQ(h->counts()[2], 1u);  // the 3.0 from a
}

TEST(Metrics, MergeRejectsMismatchedHistogramEdges) {
  obs::MetricsRegistry a;
  a.histogram("h", {1, 2}).observe(1.0);
  obs::MetricsRegistry b;
  b.histogram("h", {1, 2, 3}).observe(1.0);
  EXPECT_THROW(a.merge(b), PreconditionError);
}

TEST(Metrics, JsonIsWellFormedAndDeterministic) {
  obs::MetricsRegistry registry;
  registry.counter("zz_last").add(1);
  registry.counter("aa_first", {{"kind", "DA\"TA"}}).add(2);
  registry.gauge("gauge").set(0.125);
  registry.histogram("hist", {1, 10}).observe(5);
  const std::string json = registry.json();
  // Sorted by name: aa_first before zz_last.
  EXPECT_LT(json.find("aa_first"), json.find("zz_last"));
  // Label values are escaped.
  EXPECT_NE(json.find("DA\\\"TA"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  EXPECT_EQ(json, obs::MetricsRegistry(registry).json());
}

// --- Histogram bucket edges ----------------------------------------------------

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // <=1
  h.observe(1.0);   // <=1 (inclusive edge)
  h.observe(1.001); // <=2
  h.observe(4.0);   // <=4 (inclusive edge)
  h.observe(4.5);   // overflow
  h.observe(100);   // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 4.0 + 4.5 + 100);
}

TEST(Histogram, RejectsNonIncreasingEdges) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), PreconditionError);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), PreconditionError);
  EXPECT_THROW(obs::Histogram({}), PreconditionError);
}

// --- trace sinks ---------------------------------------------------------------

obs::TraceEvent sampleEvent() {
  obs::TraceEvent e;
  e.timeSeconds = 1.5;
  e.transmit = true;
  e.kind = "DATA";
  e.node = 7;
  e.broadcast = false;
  e.hopDst = 9;
  e.origin = 7;
  e.uid = 42;
  e.bytes = 24;
  return e;
}

TEST(TraceSinks, FormatRoundTrip) {
  EXPECT_EQ(obs::parseTraceFormat("csv"), obs::TraceFormat::kCsv);
  EXPECT_EQ(obs::parseTraceFormat("jsonl"), obs::TraceFormat::kJsonl);
  EXPECT_EQ(obs::parseTraceFormat("null"), obs::TraceFormat::kNull);
  EXPECT_THROW(obs::parseTraceFormat("xml"), PreconditionError);
  for (auto f : {obs::TraceFormat::kCsv, obs::TraceFormat::kJsonl,
                 obs::TraceFormat::kNull})
    EXPECT_EQ(obs::parseTraceFormat(obs::toString(f)), f);
}

TEST(TraceSinks, JsonlEscaping) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TraceSinks, JsonlRowShape) {
  obs::JsonlTraceSink sink;
  sink.onEvent(sampleEvent());
  EXPECT_EQ(sink.events(), 1u);
  const std::string row = sink.str();
  EXPECT_NE(row.find("\"event\":\"tx\""), std::string::npos);
  EXPECT_NE(row.find("\"kind\":\"DATA\""), std::string::npos);
  EXPECT_NE(row.find("\"uid\":42"), std::string::npos);
  EXPECT_EQ(row.back(), '\n');
}

TEST(TraceSinks, CountingSinkCountsWithoutBuffering) {
  obs::CountingTraceSink sink;
  for (int i = 0; i < 1000; ++i) sink.onEvent(sampleEvent());
  EXPECT_EQ(sink.events(), 1000u);
  EXPECT_EQ(sink.str(), "");
}

// --- profiler ------------------------------------------------------------------

TEST(Profiler, NestedScopesSplitSelfAndInclusive) {
  obs::Profiler profiler;
  {
    obs::Profiler::Activation activation(&profiler);
    ASSERT_EQ(obs::Profiler::current(), &profiler);
    {
      WMSN_PROFILE_PHASE(kEventDispatch);
      EXPECT_EQ(profiler.depth(), 1u);
      {
        WMSN_PROFILE_PHASE(kCrypto);
        EXPECT_EQ(profiler.depth(), 2u);
        // Busy-wait so the inner phase accumulates measurable time.
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::milliseconds(2)) {
        }
      }
    }
  }
  EXPECT_EQ(obs::Profiler::current(), nullptr);  // Activation restored
  EXPECT_TRUE(profiler.any());
  EXPECT_EQ(profiler.depth(), 0u);

  const obs::PhaseTotals& dispatch =
      profiler.totals(obs::Phase::kEventDispatch);
  const obs::PhaseTotals& crypto = profiler.totals(obs::Phase::kCrypto);
  EXPECT_EQ(dispatch.calls, 1u);
  EXPECT_EQ(crypto.calls, 1u);
  // The nested crypto time is inside dispatch's inclusive time but outside
  // its self time.
  EXPECT_GE(dispatch.inclusiveSeconds, crypto.inclusiveSeconds);
  EXPECT_LE(dispatch.selfSeconds,
            dispatch.inclusiveSeconds - crypto.inclusiveSeconds + 1e-6);
  EXPECT_GT(crypto.selfSeconds, 0.0);
}

TEST(Profiler, ScopesAreNoOpsWithoutActivation) {
  ASSERT_EQ(obs::Profiler::current(), nullptr);
  WMSN_PROFILE_PHASE(kCrypto);  // must not crash or record anywhere
  SUCCEED();
}

TEST(Profiler, ActivationRestoresPreviousProfiler) {
  obs::Profiler outer, inner;
  obs::Profiler::Activation a(&outer);
  {
    obs::Profiler::Activation b(&inner);
    EXPECT_EQ(obs::Profiler::current(), &inner);
  }
  EXPECT_EQ(obs::Profiler::current(), &outer);
}

TEST(Profiler, MergeSumsTotals) {
  auto work = [](obs::Profiler& p) {
    obs::Profiler::Activation activation(&p);
    WMSN_PROFILE_PHASE(kMacContention);
  };
  obs::Profiler a, b;
  work(a);
  work(b);
  a.merge(b);
  EXPECT_EQ(a.totals(obs::Phase::kMacContention).calls, 2u);
}

TEST(Profiler, EmptyProfilerHasNoRowsAndMergesAsIdentity) {
  const obs::Profiler empty;
  EXPECT_FALSE(empty.any());
  // The table of an untouched profiler carries the header and nothing else:
  // zero-call phases are skipped, so no row invents a phase that never ran.
  const std::string table = empty.table().str();
  for (const obs::Phase phase :
       {obs::Phase::kEventDispatch, obs::Phase::kMacContention,
        obs::Phase::kCrypto, obs::Phase::kRouteMaintenance})
    EXPECT_EQ(table.find(obs::toString(phase)), std::string::npos) << table;

  obs::Profiler touched;
  {
    obs::Profiler::Activation activation(&touched);
    WMSN_PROFILE_PHASE(kCrypto);
  }
  const double before = touched.totals(obs::Phase::kCrypto).inclusiveSeconds;
  touched.merge(empty);  // merging an empty profiler changes nothing
  EXPECT_EQ(touched.totals(obs::Phase::kCrypto).calls, 1u);
  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(touched.totals(obs::Phase::kCrypto).inclusiveSeconds, before);
  EXPECT_FALSE(empty.any());  // and leaves the source untouched

  obs::Profiler sink;
  sink.merge(empty);  // empty into empty stays empty
  EXPECT_FALSE(sink.any());
}

TEST(Profiler, RepeatMergeAccumulatesLikeSeedOrderMerge) {
  // The --repeat path merges one per-seed profiler after another into the
  // first; merging the same source repeatedly must keep summing, exactly as
  // distinct seeds with identical phase mixes would.
  auto work = [](obs::Profiler& p, int times) {
    obs::Profiler::Activation activation(&p);
    for (int i = 0; i < times; ++i) {
      WMSN_PROFILE_PHASE(kRouteMaintenance);
    }
  };
  obs::Profiler merged, seedA, seedB;
  work(merged, 1);
  work(seedA, 2);
  work(seedB, 3);
  merged.merge(seedA);
  merged.merge(seedB);
  merged.merge(seedB);
  EXPECT_EQ(merged.totals(obs::Phase::kRouteMaintenance).calls, 9u);
  EXPECT_GE(merged.totals(obs::Phase::kRouteMaintenance).inclusiveSeconds,
            seedB.totals(obs::Phase::kRouteMaintenance).inclusiveSeconds);
}

TEST(Profiler, TableRowsAreSortedByPhaseName) {
  obs::Profiler profiler;
  {
    obs::Profiler::Activation activation(&profiler);
    // Touch phases in reverse-alphabetical order; the table must not care.
    {
      WMSN_PROFILE_PHASE(kRouteMaintenance);
    }
    {
      WMSN_PROFILE_PHASE(kMacContention);
    }
    {
      WMSN_PROFILE_PHASE(kCrypto);
    }
  }
  const std::string table = profiler.table().str();
  const std::size_t crypto = table.find("crypto");
  const std::size_t mac = table.find("mac-contention");
  const std::size_t route = table.find("route-maintenance");
  ASSERT_NE(crypto, std::string::npos);
  ASSERT_NE(mac, std::string::npos);
  ASSERT_NE(route, std::string::npos);
  EXPECT_LT(crypto, mac);
  EXPECT_LT(mac, route);
  EXPECT_EQ(table.find("event-dispatch"), std::string::npos);  // never ran
}

// --- observer mux --------------------------------------------------------------

TEST(ObserverMux, DoubleAttachOfSameNameFails) {
  obs::ObserverMux<int> mux;
  mux.attach("a", [](int) {});
  EXPECT_THROW(mux.attach("a", [](int) {}), PreconditionError);
  EXPECT_THROW(mux.attach("b", nullptr), PreconditionError);
  EXPECT_TRUE(mux.detach("a"));
  EXPECT_FALSE(mux.detach("a"));  // already gone
  mux.attach("a", [](int) {});    // reattach after detach is fine
}

TEST(ObserverMux, NotifiesAllInAttachOrder) {
  obs::ObserverMux<int> mux;
  std::vector<std::string> order;
  mux.attach("first", [&](int v) { order.push_back("first:" + std::to_string(v)); });
  mux.attach("second", [&](int v) { order.push_back("second:" + std::to_string(v)); });
  mux.notify(7);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first:7");
  EXPECT_EQ(order[1], "second:7");
}

TEST(ObserverMux, MultipleFrameConsumersCoexist) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 25;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 110;
  cfg.height = 110;
  cfg.rounds = 1;
  cfg.seed = 6;
  auto scenario = core::buildScenario(cfg);

  core::TraceLogger trace;  // consumer 1: the CSV trace
  trace.attach(*scenario);
  std::uint64_t counted = 0;  // consumer 2: an ad-hoc counter
  scenario->network->attachFrameObserver(
      "test-counter",
      [&counted](const net::Packet&, net::NodeId, bool) { ++counted; });

  core::Experiment experiment(*scenario);
  experiment.run();
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(counted, trace.rows());  // both saw every frame event

  // The single-slot footgun is gone, but the same consumer attaching twice
  // is still an error.
  EXPECT_THROW(trace.attach(*scenario), PreconditionError);
}

// --- TrafficStats queue accounting ---------------------------------------------

TEST(QueueStats, PerNodeDropsSumToNetworkTotal) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 120;
  cfg.height = 120;
  cfg.rounds = 3;
  cfg.workload.kind = workload::WorkloadKind::kPoisson;
  cfg.workload.ratePerSensor = 3.0;  // deep saturation
  cfg.macQueue.capacity = 2;
  cfg.seed = 9;
  auto scenario = core::buildScenario(cfg);
  core::Experiment experiment(*scenario);
  experiment.run();

  const net::TrafficStats& stats = scenario->network->stats();
  ASSERT_GT(stats.queueDrops(), 0u);
  std::uint64_t perNodeSum = 0;
  for (const auto& [node, drops] : stats.queueDropsByNode()) perNodeSum += drops;
  EXPECT_EQ(perNodeSum, stats.queueDrops());
  EXPECT_FALSE(stats.peakQueueDepthByNode().empty());
}

// --- experiment wiring ---------------------------------------------------------

core::ScenarioConfig obsConfig(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 40;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = 140;
  cfg.height = 140;
  cfg.rounds = 3;
  cfg.seed = seed;
  cfg.obs.metrics = true;
  cfg.obs.timeseries = true;
  return cfg;
}

TEST(Observability, OffByDefaultAndCheapToCarry) {
  core::ScenarioConfig cfg = obsConfig(3);
  cfg.obs = {};  // defaults
  EXPECT_FALSE(cfg.obs.any());
  const auto result = core::runScenario(cfg);
  EXPECT_EQ(result.observations, nullptr);
}

TEST(Observability, TimeSeriesHasOneRowPerRoundWithD2) {
  const auto result = core::runScenario(obsConfig(3));
  ASSERT_NE(result.observations, nullptr);
  const obs::TimeSeriesRecorder& series = result.observations->timeseries;
  EXPECT_EQ(series.rounds(), result.roundsCompleted);
  double prevD2 = -1.0;
  std::uint64_t delivered = 0;
  for (const obs::RoundSample& s : series.samples()) {
    EXPECT_GE(s.energyVarianceD2, 0.0);
    EXPECT_GE(s.energyMaxJ, s.energyMinJ);
    EXPECT_GE(s.pdrRound, 0.0);
    EXPECT_LE(s.pdrRound, 1.0);
    prevD2 = s.energyVarianceD2;
    delivered += s.delivered;
  }
  (void)prevD2;
  EXPECT_EQ(delivered, result.delivered);  // round deltas sum to the total
  const std::string csv = series.csv("seed 3").str();
  EXPECT_NE(csv.find("energy_d2"), std::string::npos);
  EXPECT_NE(csv.find("qdepth_le_"), std::string::npos);
  EXPECT_NE(csv.find("gw1_deliveries"), std::string::npos);
  EXPECT_NE(csv.find("seed 3"), std::string::npos);
}

TEST(Observability, RegistryCoversAllFourSources) {
  const auto result = core::runScenario(obsConfig(3));
  ASSERT_NE(result.observations, nullptr);
  const obs::MetricsRegistry& m = result.observations->metrics;
  const obs::Labels proto = {{"protocol", result.protocol}};
  // TrafficStats.
  ASSERT_NE(m.findCounter("wmsn_readings_delivered_total", proto), nullptr);
  EXPECT_EQ(m.findCounter("wmsn_readings_delivered_total", proto)->value(),
            result.delivered);
  // MAC queues.
  EXPECT_NE(m.findHistogram("wmsn_node_peak_queue_depth", proto), nullptr);
  // Energy model.
  ASSERT_NE(m.findGauge("wmsn_sensor_energy_variance_d2", proto), nullptr);
  EXPECT_DOUBLE_EQ(
      m.findGauge("wmsn_sensor_energy_variance_d2", proto)->value(),
      result.sensorEnergy.varianceD2);
  // Per-gateway load.
  EXPECT_NE(m.findCounter("wmsn_gateway_deliveries_total",
                          {{"protocol", result.protocol}, {"gateway", "0"}}),
            nullptr);
  // Routing (SecMLR counters appear for secmlr runs).
  auto secCfg = obsConfig(3);
  secCfg.protocol = core::ProtocolKind::kSecMlr;
  const auto secResult = core::runScenario(secCfg);
  EXPECT_NE(secResult.observations->metrics.findCounter(
                "wmsn_secmlr_rejected_macs_total",
                {{"protocol", secResult.protocol}}),
            nullptr);
}

TEST(Observability, ProfilerRecordsPhasesWhenEnabled) {
  auto cfg = obsConfig(4);
  cfg.obs.profile = true;
  const auto result = core::runScenario(cfg);
  ASSERT_NE(result.observations, nullptr);
  EXPECT_TRUE(result.observations->profiled);
  EXPECT_TRUE(result.observations->profiler.any());
  EXPECT_GT(
      result.observations->profiler.totals(obs::Phase::kEventDispatch).calls,
      0u);
  EXPECT_GT(
      result.observations->profiler.totals(obs::Phase::kMacContention).calls,
      0u);
}

TEST(Observability, MetricsIdenticalAcrossThreadCounts) {
  auto sweep = [](unsigned threads) {
    std::vector<core::ScenarioConfig> configs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      configs.push_back(obsConfig(seed));
    const auto results = core::runScenariosParallel(configs, threads);
    obs::MetricsRegistry merged;
    std::string timeseries;
    for (std::size_t i = 0; i < results.size(); ++i) {
      merged.merge(results[i].observations->metrics);
      timeseries += results[i]
                        .observations->timeseries
                        .csv("seed " + std::to_string(i + 1))
                        .str();
    }
    return merged.json() + "\n---\n" + timeseries;
  };
  const std::string serial = sweep(1);
  const std::string parallel = sweep(4);
  EXPECT_EQ(serial, parallel);  // byte-identical, any --threads
}

// --- perf counters --------------------------------------------------------------

TEST(PerfStats, MacroIsNoOpWithoutLedgerAndCountsWithOne) {
  ASSERT_EQ(obs::PerfStats::current(), nullptr);
  WMSN_PERF(kRngDraws);  // no active ledger: must not crash or record
  obs::PerfStats stats;
  {
    obs::PerfStats::Activation counting(&stats);
    ASSERT_EQ(obs::PerfStats::current(), &stats);
    WMSN_PERF(kRngDraws);
    WMSN_PERF(kPairsExamined, 40);
    WMSN_PERF(kPairsExamined, 2);
  }
  EXPECT_EQ(obs::PerfStats::current(), nullptr);  // Activation restored
  EXPECT_TRUE(stats.any());
  EXPECT_EQ(stats.value(obs::PerfCounter::kRngDraws), 1u);
  EXPECT_EQ(stats.value(obs::PerfCounter::kPairsExamined), 42u);
  EXPECT_EQ(stats.value(obs::PerfCounter::kFramesOffered), 0u);
}

TEST(PerfStats, ActivationNestsAndRestoresPreviousLedger) {
  obs::PerfStats outer, inner;
  obs::PerfStats::Activation a(&outer);
  {
    obs::PerfStats::Activation b(&inner);
    WMSN_PERF(kNodeSteps, 5);
  }
  WMSN_PERF(kNodeSteps, 2);
  EXPECT_EQ(inner.value(obs::PerfCounter::kNodeSteps), 5u);
  EXPECT_EQ(outer.value(obs::PerfCounter::kNodeSteps), 2u);
}

TEST(PerfStats, MergeSumsAndJsonIsSortedByMetricName) {
  obs::PerfStats a, b;
  a.add(obs::PerfCounter::kFramesOffered, 3);
  b.add(obs::PerfCounter::kFramesOffered, 4);
  b.add(obs::PerfCounter::kMacBackoffs);
  a.merge(b);
  EXPECT_EQ(a.value(obs::PerfCounter::kFramesOffered), 7u);
  EXPECT_EQ(a.value(obs::PerfCounter::kMacBackoffs), 1u);
  const std::string json = a.json();
  // Keys appear in metric-name order regardless of enumerator order, so the
  // document is byte-stable across refactors of the counter list.
  EXPECT_LT(json.find("\"frames_offered\""), json.find("\"mac_backoffs\""));
  EXPECT_NE(json.find("\"frames_offered\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rng_draws\": 0"), std::string::npos) << json;
}

TEST(PerfStats, ThreeNodeLineTopologyCountsExactly) {
  // A(0,0) — B(20,0) — C(40,0) with range 30: A hears B, B hears both, C
  // hears B only. Ideal MAC (no jitter draw) and collisions off make every
  // counter exactly predictable.
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.mac = net::MacKind::kIdeal;
  params.medium.collisions = false;
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
  const net::NodeId a = network.addSensor({0, 0});
  const net::NodeId b = network.addSensor({20, 0});
  network.addSensor({40, 0});  // C: out of A's range

  obs::PerfStats stats;
  {
    obs::PerfStats::Activation counting(&stats);

    // Broadcast from A: one transmission scanning all 3 nodes, one in-range
    // receiver (B) costing one channel draw and one delivery.
    net::Packet hello;
    hello.kind = net::PacketKind::kHello;
    hello.hopDst = net::kBroadcastId;
    network.sendFrom(a, hello);
    simulator.run();
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesOffered), 1u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesTransmitted), 1u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesReceived), 1u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kPairsExamined), 3u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kRngDraws), 1u);

    // Unicast data A→B: delivered on the first attempt, so the default ARQ
    // budget is never spent — same per-transmission costs as the broadcast.
    net::Packet data;
    data.kind = net::PacketKind::kData;
    data.hopDst = b;
    network.sendFrom(a, data);
    simulator.run();
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesOffered), 2u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesTransmitted), 2u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kFramesReceived), 2u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kPairsExamined), 6u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kRngDraws), 2u);

    // One neighbor scan examines all 3 nodes.
    EXPECT_EQ(network.neighborsOf(a).size(), 1u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kNeighborScans), 1u);
    EXPECT_EQ(stats.value(obs::PerfCounter::kPairsExamined), 9u);
  }

  // Nothing else ran: no MAC contention, no protocol rounds, no route
  // writes, no attached observers.
  EXPECT_EQ(stats.value(obs::PerfCounter::kMacBackoffs), 0u);
  EXPECT_EQ(stats.value(obs::PerfCounter::kNodeSteps), 0u);
  EXPECT_EQ(stats.value(obs::PerfCounter::kRouteMutations), 0u);
  EXPECT_EQ(stats.value(obs::PerfCounter::kObserverDispatches), 0u);
}

TEST(PerfStats, CountersAreMonotonePerRoundDuringARun) {
  core::ScenarioConfig cfg = obsConfig(6);
  cfg.obs.perf = true;
  const auto scenario = core::buildScenario(cfg);
  core::Experiment experiment(*scenario);

  std::vector<std::uint64_t> workPerRound;
  experiment.addRoundObserver("perf-monotone-probe", [&](std::uint32_t) {
    const obs::PerfStats* live = obs::PerfStats::current();
    ASSERT_NE(live, nullptr);  // the run's ledger is active on this thread
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < obs::kPerfCounterCount; ++i)
      total += live->value(static_cast<obs::PerfCounter>(i));
    workPerRound.push_back(total);
  });
  const auto result = experiment.run();

  ASSERT_EQ(workPerRound.size(), result.roundsCompleted);
  ASSERT_FALSE(workPerRound.empty());
  EXPECT_GT(workPerRound.front(), 0u);  // round 0 already did work
  for (std::size_t i = 1; i < workPerRound.size(); ++i)
    EXPECT_GE(workPerRound[i], workPerRound[i - 1]) << "round " << i;
  ASSERT_NE(result.observations, nullptr);
  EXPECT_TRUE(result.observations->perfCounted);
  // The final ledger includes everything the last observed round saw.
  std::uint64_t finalTotal = 0;
  for (std::size_t i = 0; i < obs::kPerfCounterCount; ++i)
    finalTotal += result.observations->perf.value(
        static_cast<obs::PerfCounter>(i));
  EXPECT_GE(finalTotal, workPerRound.back());
}

TEST(PerfStats, CountersIdenticalAcrossThreadCounts) {
  // The deterministic half of the ledger is part of the byte-identical
  // contract: any --threads, same counters, run by run and merged.
  auto sweep = [](unsigned threads) {
    std::vector<core::ScenarioConfig> configs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      configs.push_back(obsConfig(seed));
      configs.back().obs.perf = true;
    }
    const auto results = core::runScenariosParallel(configs, threads);
    obs::PerfStats merged;
    std::string perRun;
    for (const auto& r : results) {
      EXPECT_TRUE(r.observations->perfCounted);
      EXPECT_TRUE(r.observations->telemetry.captured);
      merged.merge(r.observations->perf);
      perRun += r.observations->perf.json() + "\n";
    }
    return merged.json() + "\n---\n" + perRun;
  };
  const std::string serial = sweep(1);
  const std::string parallel = sweep(4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace wmsn
