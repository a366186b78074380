// Campaign orchestration: spec parsing and grid expansion, run-record and
// registry wire codecs, the resumable journal, paired-seed statistics, the
// deterministic artifact, and the fork pool driven end to end (worker-count
// independence, kill + resume, crash isolation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/pool.hpp"
#include "campaign/record.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/stats.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/trace_analyze.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace wmsn;
using campaign::RunRecord;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + "wmsn_campaign_test_" + name;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

constexpr const char* kTinySpec =
    "name = tiny\n"
    "seed = 3\n"
    "repeats = 2\n"
    "sensors = 40\n"
    "area = 120\n"
    "gateways = 2\n"
    "places = 4\n"
    "rounds = 2\n"
    "packets = 1\n"
    "metrics = on\n"
    "\n"
    "[sweep]\n"
    "protocol = spr, mlr\n"
    "fault = baseline=none, gw-crash=gw0@1\n";

// --- seed derivation (the contract wmsn_cli --repeat and campaigns share) --

TEST(SeedDerivation, SequenceIsPinned) {
  // BENCH_* baselines and every journaled campaign depend on this exact
  // sequence; changing replicaSeed invalidates them all.
  EXPECT_EQ(replicaSeed(40, 0), 40u);
  EXPECT_EQ(replicaSeed(40, 4), 44u);
  const std::vector<std::uint64_t> expected{40, 41, 42, 43, 44};
  EXPECT_EQ(seedSequence(40, 5), expected);
}

TEST(SeedDerivation, ExpandSeedsMatchesSeedSequence) {
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  const auto configs = core::expandSeeds(cfg, 3);
  ASSERT_EQ(configs.size(), 3u);
  const auto seeds = seedSequence(7, 3);
  for (std::size_t k = 0; k < configs.size(); ++k)
    EXPECT_EQ(configs[k].seed, seeds[k]);
}

// --- spec parsing ----------------------------------------------------------

TEST(CampaignSpec, ParsesCampaignKeysVariantsAndAxes) {
  const auto spec = campaign::parseSpec(
      "name = demo\n"
      "seed = 11\n"
      "repeats = 4\n"
      "compare = variant\n"
      "sensors = 80\n"
      "# a comment\n"
      "[variant a]\n"
      "protocol = spr\n"
      "[variant b]\n"
      "protocol = mlr\n"
      "gateways = 3\n"
      "[sweep]\n"
      "variant = a, b\n"
      "rate = slow=0.5, fast=2.0\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seedBase, 11u);
  EXPECT_EQ(spec.repeats, 4u);
  EXPECT_EQ(spec.compareKey, "variant");
  ASSERT_EQ(spec.base.size(), 1u);
  EXPECT_EQ(spec.base[0].first, "sensors");
  ASSERT_EQ(spec.variants.size(), 2u);
  ASSERT_NE(spec.findVariant("b"), nullptr);
  EXPECT_EQ(spec.findVariant("b")->size(), 2u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[1].values[0].label, "slow");
  EXPECT_EQ(spec.axes[1].values[0].value, "0.5");
  EXPECT_EQ(spec.axes[0].values[1].label, "b");  // bare item: label == value
}

TEST(CampaignSpec, CompareDefaultsToVariantThenProtocol) {
  const auto withVariant = campaign::parseSpec(
      "[variant a]\nprotocol = spr\n[sweep]\nvariant = a\nprotocol = spr\n");
  EXPECT_EQ(withVariant.compareKey, "variant");
  const auto withProtocol =
      campaign::parseSpec("[sweep]\nprotocol = spr, mlr\n");
  EXPECT_EQ(withProtocol.compareKey, "protocol");
}

TEST(CampaignSpec, RejectsMalformedInput) {
  EXPECT_THROW(campaign::parseSpec("sensors = 80\n"), PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep\nprotocol = spr\n"),
               PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep]\nprotocol = spr\nprotocol = mlr\n"),
               PreconditionError);
  EXPECT_THROW(campaign::parseSpec("not a key value line\n[sweep]\nx = 1\n"),
               PreconditionError);
  EXPECT_THROW(
      campaign::parseSpec("compare = rate\n[sweep]\nprotocol = spr\n"),
      PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep]\nprotocol = spr, spr\n"),
               PreconditionError);
  // Unknown setting keys surface at expansion time for axis values...
  const auto spec =
      campaign::parseSpec("[sweep]\nvariant = nosuch\nprotocol = spr\n");
  EXPECT_THROW(campaign::expand(spec), PreconditionError);
  // ...and unknown base keys at expansion too.
  EXPECT_THROW(
      campaign::expand(campaign::parseSpec("warp = 9\n[sweep]\nprotocol = spr\n")),
      PreconditionError);

  // Numbers must fit their field: no silent narrowing to 32 bits, no
  // std::out_of_range escaping. The error names the key.
  const auto expectRejected = [](const std::string& setting,
                                 const std::string& key) {
    try {
      campaign::expand(
          campaign::parseSpec(setting + "\n[sweep]\nprotocol = spr\n"));
      ADD_FAILURE() << setting << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << setting << " threw " << e.what();
    }
  };
  expectRejected("rounds = 4294967297", "rounds");
  expectRejected("repeats = 4294967297", "repeats");
  expectRejected("sensors = 99999999999999999999", "sensors");
  expectRejected("fault = s1@4294967299", "fault");
  expectRejected("fault = s99999999999999999999@1", "fault");
}

TEST(CampaignSpec, FingerprintTracksText) {
  const auto a = campaign::parseSpec("[sweep]\nprotocol = spr\n");
  const auto b = campaign::parseSpec("[sweep]\nprotocol = mlr\n");
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(),
            campaign::parseSpec("[sweep]\nprotocol = spr\n").fingerprint());
}

// --- expansion -------------------------------------------------------------

TEST(CampaignExpand, OrderIsAxesOuterSeedsInnermost) {
  const auto spec = campaign::parseSpec(kTinySpec);
  const auto plan = campaign::expand(spec);
  ASSERT_EQ(plan.size(), 8u);
  const std::vector<std::string> expected{
      "spr/baseline/s3", "spr/baseline/s4", "spr/gw-crash/s3",
      "spr/gw-crash/s4", "mlr/baseline/s3", "mlr/baseline/s4",
      "mlr/gw-crash/s3", "mlr/gw-crash/s4"};
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].id, expected[i]);
    EXPECT_EQ(plan[i].seed, seedSequence(3, 2)[plan[i].seedIndex]);
  }
  EXPECT_EQ(plan[0].config.sensorCount, 40u);
  EXPECT_EQ(plan[2].config.faults.events.size(), 1u);
  EXPECT_TRUE(plan[0].config.faults.events.empty());
  EXPECT_TRUE(plan[0].config.obs.metrics);
}

TEST(CampaignExpand, VariantBundlesApplyTheirSettings) {
  const auto spec = campaign::parseSpec(
      "sensors = 40\narea = 120\n"
      "[variant one]\nprotocol = spr\ngateways = 1\n"
      "[variant three]\nprotocol = mlr\ngateways = 3\nplaces = 6\n"
      "[sweep]\nvariant = one, three\n");
  const auto plan = campaign::expand(spec);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].config.gatewayCount, 1u);
  EXPECT_EQ(plan[1].config.gatewayCount, 3u);
  EXPECT_EQ(plan[1].config.protocol, core::ProtocolKind::kMlr);
}

// --- record wire -----------------------------------------------------------

/// A record whose every field holds a distinct non-default value.
RunRecord fullRecord() {
  RunRecord r;
  r.id = "mlr/gw-crash/s4";
  r.cell = "mlr/gw-crash";
  r.seed = 4;
  r.seedIndex = 1;
  r.pdr = 0.123456789012345;
  r.meanLatencyMs = 17.25;
  r.p95LatencyMs = 42.0;
  r.meanHops = 2.5;
  r.offeredPps = 8.0;
  r.goodputPps = 7.5;
  r.generated = 1000;
  r.delivered = 987;
  r.queueDrops = 3;
  r.macDrops = 1;
  r.collisions = 17;
  r.controlBytes = 123456;
  r.dataBytes = 654321;
  r.roundsCompleted = 12;
  r.firstDeathObserved = true;
  r.lifetimeS = 123.75;
  r.energyTotalJ = 1.0625;
  r.energyD2 = 1e-9;
  r.outageEpisodes = 2;
  r.meanRecoveryLatencyS = 20.5;
  r.pdrDuringOutage = 0.25;
  r.traceSpans = 4242;
  r.traceReadings = 120;
  r.traceReroutes = 7;
  r.traceDropEvents = 13;
  r.traceMeanPathHops = 2.125;
  r.perfCaptured = true;
  r.perfNodeSteps = 360;
  r.perfFramesTransmitted = 4100;
  r.perfPairsExamined = 164000;
  r.perfRngDraws = 9001;
  r.perfPeakRssKb = 5120;
  r.perfWallSeconds = 0.125;
  r.perfRoundsPerSec = 96.0;
  r.perfFramesPerSec = 32800.5;
  r.metricsWire = "wmsnmr1\x1e" "payload with \x1f and \x1d inside";
  return r;
}

/// fullRecord() in wmsnrec3 wire form, one string per field. The format is
/// positional, so journals stay readable only while the tag, the field
/// order and each kind's text (decimal integers, 0/1 bools, hexfloat
/// doubles) stay exactly as they are.
std::vector<std::string> fullRecordFields() {
  return {"wmsnrec3", "mlr/gw-crash/s4", "mlr/gw-crash", "4", "1", "ok", "",
          // pdr .. goodput_pps
          "0x1.f9add3746f62ep-4", "0x1.14p+4", "0x1.5p+5", "0x1.4p+1",
          "0x1p+3", "0x1.ep+2",
          // generated .. rounds_completed
          "1000", "987", "3", "1", "17", "123456", "654321", "12",
          // first_death_observed .. pdr_during_outage
          "1", "0x1.efp+6", "0x1.1p+0", "0x1.12e0be826d695p-30", "2",
          "0x1.48p+4", "0x1p-2",
          // trace summary
          "4242", "120", "7", "13", "0x1.1p+1",
          // perf_captured, then the perf summary
          "1", "360", "4100", "164000", "9001", "5120", "0x1p-3", "0x1.8p+6",
          "0x1.0041p+15",
          // metrics blob length, then the blob
          "35", "wmsnmr1\x1e" "payload with \x1f and \x1d inside"};
}

std::string joinFields(const std::vector<std::string>& fields) {
  std::string line = fields.at(0);
  for (std::size_t i = 1; i < fields.size(); ++i) line += '\x1f' + fields[i];
  return line;
}

TEST(CampaignRecord, WireRoundTripsLosslessly) {
  // RunRecord's == compares every field, so a dropped field or a swapped
  // pair of same-typed fields fails here. (Doubles are exact: the wire is
  // hexfloat.)
  RunRecord r = fullRecord();
  const std::string line = joinFields(fullRecordFields());
  EXPECT_EQ(campaign::encodeRecord(r), line);
  EXPECT_EQ(campaign::decodeRecord(line), r);
  // The two bools have one non-default value each; differing values catch
  // a swap between them.
  r.perfCaptured = false;
  EXPECT_EQ(campaign::decodeRecord(campaign::encodeRecord(r)), r);
}

TEST(CampaignRecord, FailedRecordCarriesError) {
  const RunRecord r = campaign::makeFailedRecord("a/s1", "a", 1, 0, "boom");
  const RunRecord back = campaign::decodeRecord(campaign::encodeRecord(r));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.error, "boom");
  EXPECT_TRUE(back.metricsWire.empty());
}

TEST(CampaignRecord, DecodeRejectsGarbage) {
  EXPECT_THROW(campaign::decodeRecord(""), PreconditionError);
  EXPECT_THROW(campaign::decodeRecord("not a record"), PreconditionError);
  const std::string line =
      campaign::encodeRecord(campaign::makeFailedRecord("a/s1", "a", 1, 0, ""));
  EXPECT_THROW(campaign::decodeRecord(line.substr(0, line.size() / 2)),
               PreconditionError);

  // One field of a well-formed line replaced must fail with a
  // PreconditionError that names the field: no silent narrowing, no lenient
  // bools, no std::out_of_range escaping from an oversized integer.
  const auto expectRejected = [](std::size_t index, const std::string& text,
                                 const std::string& key) {
    std::vector<std::string> fields = fullRecordFields();
    fields.at(index) = text;
    try {
      campaign::decodeRecord(joinFields(fields));
      ADD_FAILURE() << key << " = '" << text << "' was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << key << " = '" << text << "' threw " << e.what();
    }
  };
  // Indices into fullRecordFields(); the scalars start at 7.
  expectRejected(4, "4294967296", "seed_index");
  expectRejected(3, "99999999999999999999", "seed");
  expectRejected(7 + 13, "4294967303", "rounds_completed");
  expectRejected(7 + 14, "x", "first_death_observed");
  expectRejected(7 + 26, "yes", "perf_captured");
  expectRejected(7 + 6, "99999999999999999999", "generated");
  expectRejected(7 + 0, "0x1p+0z", "pdr");
}

// --- metrics registry wire -------------------------------------------------

TEST(CampaignRegistryWire, RoundTripPreservesJsonExactly) {
  obs::MetricsRegistry reg;
  reg.counter("wmsn_generated", {{"protocol", "mlr"}}).add(123);
  reg.gauge("wmsn_pdr").set(0.9876543210123);
  auto& h = reg.histogram("wmsn_latency_ms", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(55.0);
  h.observe(1e6);
  const obs::MetricsRegistry back =
      obs::MetricsRegistry::fromWire(reg.wire());
  EXPECT_EQ(back.json(), reg.json());
  EXPECT_EQ(obs::MetricsRegistry::fromWire(back.wire()).json(), reg.json());
}

TEST(CampaignRegistryWire, RejectsMalformedIntegers) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h", {1.0}).observe(0.5);
  const std::string wire = reg.wire();
  ASSERT_NO_THROW(obs::MetricsRegistry::fromWire(wire));
  // The counter value ends its record ("...\x1f5\x1e"); the histogram
  // counts field is "1;0".
  const std::size_t counter = wire.find("\x1f" "5\x1e");
  const std::size_t counts = wire.find("\x1f" "1;0\x1f");
  ASSERT_NE(counter, std::string::npos);
  ASSERT_NE(counts, std::string::npos);
  for (const std::string bad : {"99999999999999999999", "-1", "5x", ""}) {
    std::string withCounter = wire;
    withCounter.replace(counter + 1, 1, bad);
    EXPECT_THROW(obs::MetricsRegistry::fromWire(withCounter),
                 PreconditionError)
        << "counter '" << bad << "'";
    std::string withCount = wire;
    withCount.replace(counts + 1, 1, bad);
    EXPECT_THROW(obs::MetricsRegistry::fromWire(withCount), PreconditionError)
        << "histogram count '" << bad << "'";
  }
}

TEST(CampaignRegistryWire, MergeAfterTransportMatchesDirectMerge) {
  obs::MetricsRegistry a;
  a.counter("c").add(1);
  a.histogram("h", {1.0, 2.0}).observe(1.5);
  obs::MetricsRegistry b;
  b.counter("c").add(2);
  b.histogram("h", {1.0, 2.0}).observe(5.0);

  obs::MetricsRegistry direct;
  direct.merge(a);
  direct.merge(b);
  obs::MetricsRegistry shipped;
  shipped.merge(obs::MetricsRegistry::fromWire(a.wire()));
  shipped.merge(obs::MetricsRegistry::fromWire(b.wire()));
  EXPECT_EQ(shipped.json(), direct.json());
}

// --- journal ---------------------------------------------------------------

TEST(CampaignJournal, AppendThenResumeRestoresRecords) {
  const std::string path = tmpPath("journal_roundtrip");
  {
    auto j = campaign::Journal::create(path, 42, 3);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
    RunRecord ok = campaign::makeFailedRecord("a/s2", "a", 2, 1, "");
    ok.status = RunRecord::Status::kOk;
    ok.pdr = 0.5;
    j.append(ok);
  }
  const auto j = campaign::Journal::resume(path, 42, 3);
  ASSERT_EQ(j.loaded().size(), 2u);
  EXPECT_FALSE(j.loaded().at("a/s1").ok());
  EXPECT_TRUE(j.loaded().at("a/s2").ok());
  EXPECT_EQ(j.loaded().at("a/s2").pdr, 0.5);  // wmsn-lint: allow(float-equality)
  std::remove(path.c_str());
}

TEST(CampaignJournal, ToleratesTornFinalLineOnly) {
  const std::string path = tmpPath("journal_torn");
  {
    auto j = campaign::Journal::create(path, 7, 2);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
  }
  // Simulate a kill mid-append: a half-written record with no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << campaign::encodeRecord(
               campaign::makeFailedRecord("a/s2", "a", 2, 1, "y"))
               .substr(0, 10);
  }
  auto j = campaign::Journal::resume(path, 7, 2);
  EXPECT_EQ(j.loaded().size(), 1u);
  // The torn fragment was dropped on rewrite, so the re-append succeeds.
  j.append(campaign::makeFailedRecord("a/s2", "a", 2, 1, "y"));
  j.close();
  EXPECT_EQ(campaign::Journal::resume(path, 7, 2).loaded().size(), 2u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RejectsDuplicatesAndForeignSpecs) {
  const std::string path = tmpPath("journal_dupe");
  {
    auto j = campaign::Journal::create(path, 42, 3);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
    EXPECT_THROW(j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x")),
                 PreconditionError);
  }
  EXPECT_THROW(campaign::Journal::resume(path, 43, 3), PreconditionError);
  EXPECT_THROW(campaign::Journal::resume(path, 42, 4), PreconditionError);
  EXPECT_THROW(campaign::Journal::resume(tmpPath("journal_missing"), 42, 3),
               PreconditionError);
  std::remove(path.c_str());
}

// --- statistics ------------------------------------------------------------

TEST(CampaignStats, AggregateMatchesHandComputation) {
  const auto a = campaign::aggregate({2.0, 4.0, 4.0, 4.0, 6.0});
  EXPECT_EQ(a.n, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 4.0);
  EXPECT_NEAR(a.stddev, 1.4142135623730951, 1e-12);
  // t(df=4) = 2.776: ci95 = 2.776 * stddev / sqrt(5)
  EXPECT_NEAR(a.ci95, 2.776 * a.stddev / std::sqrt(5.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.min, 2.0);
  EXPECT_DOUBLE_EQ(a.max, 6.0);
  EXPECT_EQ(campaign::aggregate({}).n, 0u);
  EXPECT_DOUBLE_EQ(campaign::aggregate({3.0}).ci95, 0.0);
}

TEST(CampaignStats, TCriticalTable) {
  EXPECT_DOUBLE_EQ(campaign::tCritical95(1), 12.706);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(4), 2.776);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(30), 2.042);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(1000), 1.96);
}

TEST(CampaignStats, ExactSignTest) {
  // 5-0 split: 2 * (1/2)^5 = 0.0625.
  EXPECT_NEAR(campaign::signTestTwoSided(5, 0), 0.0625, 1e-15);
  // 4-1 split: 2 * (C(5,0)+C(5,1)) / 32 = 0.375.
  EXPECT_NEAR(campaign::signTestTwoSided(4, 1), 0.375, 1e-15);
  EXPECT_DOUBLE_EQ(campaign::signTestTwoSided(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(campaign::signTestTwoSided(0, 0), 1.0);
  // 9-1: 2 * (1 + 10) / 1024.
  EXPECT_NEAR(campaign::signTestTwoSided(9, 1), 22.0 / 1024.0, 1e-15);
}

// --- artifact determinism --------------------------------------------------

/// The committed smoke spec with one synthesized ok record per run (no
/// simulation needed to test rendering). Every scalar field of every record
/// has its own value, so each table column's mean differs.
struct SmokeRuns {
  campaign::CampaignSpec spec = campaign::loadSpec(
      std::string(WMSN_SOURCE_DIR) + "/campaigns/smoke.spec");
  std::vector<campaign::PlannedRun> plan = campaign::expand(spec);
  std::map<std::string, RunRecord> records;

  SmokeRuns() {
    double v = 0.0;
    for (const auto& run : plan) {
      RunRecord r = campaign::makeFailedRecord(run.id, run.cell, run.seed,
                                               run.seedIndex, "");
      r.status = RunRecord::Status::kOk;
      for (const campaign::RecordField& field : campaign::recordFields())
        std::visit([&](auto m) { r.*m = static_cast<std::decay_t<decltype(
                                     r.*m)>>(v += 1.217); },
                   field.member);
      r.perfCaptured = false;
      records.emplace(r.id, r);
    }
  }

  RunRecord& at(std::size_t i) { return records.at(plan[i].id); }

  /// The rendered table's rows split into trimmed cells; [0] is the header.
  std::vector<std::vector<std::string>> rows() const {
    std::vector<std::vector<std::string>> out;
    std::istringstream lines(campaign::renderCellTable(plan, records));
    for (std::string line; std::getline(lines, line);) {
      if (line.empty() || line[0] != '|') continue;
      const auto cells = splitList(line, '|');
      out.emplace_back(cells.begin() + 1, cells.end() - 1);
    }
    return out;
  }
};

TEST(CampaignArtifact, IndependentOfRecordArrivalOrder) {
  const SmokeRuns s;
  std::vector<RunRecord> recs;
  for (const auto& run : s.plan) recs.push_back(s.records.at(run.id));

  // Deterministic reorder (reverse + rotate) — any permutation must render
  // the same artifact, since the map and the plan fix the iteration order.
  std::reverse(recs.begin(), recs.end());
  std::rotate(recs.begin(), recs.begin() + 3, recs.end());
  std::map<std::string, RunRecord> shuffled;
  for (const auto& r : recs) shuffled.emplace(r.id, r);

  const std::string a = campaign::renderArtifact(s.spec, s.plan, s.records);
  const std::string b = campaign::renderArtifact(s.spec, s.plan, shuffled);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"wmsn-campaign-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"deltas\""), std::string::npos);

  // A missing run is a hard error, not a silent gap.
  std::map<std::string, RunRecord> incomplete = s.records;
  incomplete.erase(s.plan[3].id);
  EXPECT_THROW(campaign::renderArtifact(s.spec, s.plan, incomplete),
               PreconditionError);
}

TEST(CampaignArtifact, FailedRunsExcludedFromAggregatesButCounted) {
  SmokeRuns s;
  s.at(0) = campaign::makeFailedRecord(s.plan[0].id, s.plan[0].cell,
                                       s.plan[0].seed, s.plan[0].seedIndex,
                                       "died");
  const std::string json = campaign::renderArtifact(s.spec, s.plan, s.records);
  EXPECT_NE(json.find("\"runs_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"n_ok\": 1, \"n_failed\": 1"), std::string::npos);
  // The failed run's seed drops out of its context's paired deltas.
  EXPECT_NE(json.find("\"context\": \"baseline\", \"a\": \"spr\", \"b\": "
                      "\"mlr\", \"pairs\": 1"),
            std::string::npos);
}

// --- per-cell table --------------------------------------------------------

TEST(CampaignCellTable, RowsFollowPlanOrder) {
  const auto rows = SmokeRuns().rows();
  // Plan order, not name order: the spec sweeps spr before mlr.
  const std::vector<std::string> expected = {
      "cell n_ok n_failed", "spr/baseline 2 0", "spr/gw-crash 2 0",
      "mlr/baseline 2 0", "mlr/gw-crash 2 0"};
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t r = 0; r < rows.size(); ++r)
    EXPECT_EQ(rows[r][0] + " " + rows[r][1] + " " + rows[r][2], expected[r]);
}

TEST(CampaignCellTable, FailedRunIsCountedAndLeftOutOfEveryMean) {
  SmokeRuns s;
  s.at(0).status = RunRecord::Status::kFailed;
  auto rows = s.rows();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[1][1] + "/" + rows[1][2], "1/1");
  for (std::size_t c = 3; c < rows[0].size(); ++c)
    EXPECT_EQ(rows[1][c], TextTable::num(campaign::recordField(rows[0][c])
                                             .number(s.at(1)), 3)) << rows[0][c];

  // A cell whose runs all failed has no means to show.
  s.at(1).status = RunRecord::Status::kFailed;
  rows = s.rows();
  EXPECT_EQ(rows[1][1] + "/" + rows[1][2], "0/2");
  for (std::size_t c = 3; c < rows[0].size(); ++c) EXPECT_EQ(rows[1][c], "-");
}

TEST(CampaignCellTable, PerfColumnsOnlyWhenRunsCapturedPerf) {
  SmokeRuns s;
  EXPECT_EQ(s.rows()[0].size(), 3u + 8u);  // the artifact's 8 cell metrics

  // Perf captured in the last cell only: each perf field gets a column, and
  // the other cells show "-" in it.
  s.at(6).perfCaptured = s.at(7).perfCaptured = true;
  const auto rows = s.rows();
  ASSERT_EQ(rows.size(), 5u);
  std::size_t c = 11;
  for (const campaign::RecordField& field : campaign::recordFields()) {
    if (field.group != campaign::RecordField::Group::kPerf) continue;
    ASSERT_LT(c, rows[0].size());
    EXPECT_EQ(rows[0][c], field.key);
    EXPECT_EQ(rows[1][c] + rows[2][c] + rows[3][c], "---") << field.key;
    EXPECT_NE(rows[4][c++], "-") << field.key;
  }
  EXPECT_EQ(c, rows[0].size());
}

TEST(CampaignCellTable, EveryMeanIsTheAggregateMean) {
  SmokeRuns s;
  for (auto& [id, record] : s.records) record.perfCaptured = true;
  const auto rows = s.rows();
  ASSERT_EQ(rows[0].size(), 3u + 8u + 8u);  // 8 cell metrics, 8 perf fields
  for (std::size_t row = 1; row < rows.size(); ++row) {
    for (std::size_t c = 3; c < rows[0].size(); ++c) {
      std::vector<double> samples;
      for (const auto& run : s.plan)
        if (run.cell == rows[row][0])
          samples.push_back(
              campaign::recordField(rows[0][c]).number(s.records.at(run.id)));
      EXPECT_EQ(rows[row][c],
                TextTable::num(campaign::aggregate(samples).mean, 3))
          << rows[row][0] << " " << rows[0][c];
    }
  }
}

// --- fork pool -------------------------------------------------------------

TEST(CampaignPool, RunsEveryJobOnceAnyWorkerCount) {
  for (const unsigned workers : {1u, 3u}) {
    std::vector<int> results(20, -1);
    const auto stats = campaign::runForkPool(
        20, workers,
        [](std::size_t i) { return std::to_string(i * i); },
        [&](std::size_t i, bool crashed, const std::string& payload,
            unsigned) {
          EXPECT_FALSE(crashed);
          results[i] = std::stoi(payload);
        });
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i], static_cast<int>(i * i));
    std::uint64_t total = 0;
    for (const auto c : stats.perWorkerCompleted) total += c;
    EXPECT_EQ(total, 20u);
  }
}

TEST(CampaignPool, CrashIsolatesToOneJob) {
  std::vector<int> ok(10, 0);
  int crashes = 0;
  const auto stats = campaign::runForkPool(
      10, 2,
      [](std::size_t i) -> std::string {
        if (i == 4) ::_exit(86);  // simulated segfault mid-job
        return "ok";
      },
      [&](std::size_t i, bool crashed, const std::string&, unsigned) {
        if (crashed) {
          EXPECT_EQ(i, 4u);
          ++crashes;
        } else {
          ok[i] = 1;
        }
      });
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(stats.crashes, 1u);
  for (std::size_t i = 0; i < ok.size(); ++i)
    EXPECT_EQ(ok[i], i == 4 ? 0 : 1) << i;
}

// --- end-to-end campaigns --------------------------------------------------

class CampaignEndToEnd : public ::testing::Test {
 protected:
  campaign::CampaignSpec spec_ = campaign::parseSpec(kTinySpec);

  campaign::CampaignOptions options(const std::string& tag) {
    campaign::CampaignOptions opts;
    opts.outPath = tmpPath(tag + ".json");
    opts.journalPath = tmpPath(tag + ".journal");
    opts.quiet = true;
    return opts;
  }

  void cleanup(const campaign::CampaignOptions& opts) {
    std::remove(opts.outPath.c_str());
    std::remove(opts.journalPath.c_str());
    if (!opts.metricsOutPath.empty())
      std::remove(opts.metricsOutPath.c_str());
  }
};

TEST_F(CampaignEndToEnd, ArtifactIsByteIdenticalAcrossWorkerCounts) {
  auto one = options("workers1");
  one.workers = 1;
  auto four = options("workers4");
  four.workers = 4;
  four.metricsOutPath = tmpPath("workers4_metrics.json");
  auto oneMetrics = options("workers1m");
  oneMetrics.workers = 1;
  oneMetrics.metricsOutPath = tmpPath("workers1_metrics.json");

  const auto r1 = campaign::runCampaign(spec_, one);
  const auto r4 = campaign::runCampaign(spec_, four);
  const auto r1m = campaign::runCampaign(spec_, oneMetrics);
  EXPECT_EQ(r1.runsExecuted, 8u);
  EXPECT_EQ(r4.runsExecuted, 8u);
  EXPECT_EQ(r1.runsFailed, 0u);
  EXPECT_EQ(readFile(one.outPath), readFile(four.outPath));
  EXPECT_EQ(readFile(one.outPath), readFile(oneMetrics.outPath));
  EXPECT_EQ(readFile(oneMetrics.metricsOutPath),
            readFile(four.metricsOutPath));
  cleanup(one);
  cleanup(four);
  cleanup(oneMetrics);
}

TEST_F(CampaignEndToEnd, StopAfterThenResumeMatchesUninterrupted) {
  auto full = options("full");
  full.workers = 2;
  campaign::runCampaign(spec_, full);

  auto interrupted = options("interrupted");
  interrupted.workers = 2;
  interrupted.stopAfter = 3;
  const auto stopped = campaign::runCampaign(spec_, interrupted);
  EXPECT_TRUE(stopped.stoppedEarly);
  EXPECT_EQ(stopped.runsExecuted, 3u);

  interrupted.stopAfter = 0;
  interrupted.resume = true;
  const auto resumed = campaign::runCampaign(spec_, interrupted);
  EXPECT_FALSE(resumed.stoppedEarly);
  EXPECT_EQ(resumed.runsFromJournal, 3u);
  EXPECT_EQ(resumed.runsExecuted, 5u);
  EXPECT_EQ(readFile(full.outPath), readFile(interrupted.outPath));
  cleanup(full);
  cleanup(interrupted);
}

// Tracing-enabled campaign: a `trace = on` spec whose per-run trace
// summaries land in the artifact, stay byte-identical across kill + resume,
// and whose crash-injected worker leaves a flight-recorder dump behind.
constexpr const char* kTracedSpec =
    "name = traced\n"
    "seed = 9\n"
    "repeats = 2\n"
    "sensors = 40\n"
    "area = 120\n"
    "gateways = 2\n"
    "places = 4\n"
    "rounds = 2\n"
    "packets = 1\n"
    "metrics = on\n"
    "trace = on\n"
    "\n"
    "[sweep]\n"
    "protocol = mlr, secmlr\n";

TEST_F(CampaignEndToEnd, TracedArtifactSurvivesKillAndResume) {
  const auto traced = campaign::parseSpec(kTracedSpec);
  auto full = options("traced_full");
  full.workers = 2;
  const auto complete = campaign::runCampaign(traced, full);
  EXPECT_EQ(complete.runsExecuted, 4u);
  EXPECT_EQ(complete.runsFailed, 0u);
  const std::string json = readFile(full.outPath);
  EXPECT_NE(json.find("\"trace_spans\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace_mean_path_hops\":"), std::string::npos);

  auto interrupted = options("traced_cut");
  interrupted.workers = 2;
  interrupted.stopAfter = 2;
  const auto stopped = campaign::runCampaign(traced, interrupted);
  EXPECT_TRUE(stopped.stoppedEarly);
  interrupted.stopAfter = 0;
  interrupted.resume = true;
  const auto resumed = campaign::runCampaign(traced, interrupted);
  EXPECT_EQ(resumed.runsFromJournal, 2u);
  EXPECT_EQ(json, readFile(interrupted.outPath));
  cleanup(full);
  cleanup(interrupted);
}

TEST_F(CampaignEndToEnd, CrashedWorkerDumpsFlightRecorder) {
  const auto traced = campaign::parseSpec(kTracedSpec);
  auto opts = options("traced_crash");
  opts.workers = 2;
  opts.flightRecorderDir = testing::TempDir();
  const std::string dumpPath = opts.flightRecorderDir + "flight-mlr_s9.jsonl";
  std::remove(dumpPath.c_str());
  ::setenv(campaign::kCrashRunEnv, "mlr/s9", 1);
  const auto outcome = campaign::runCampaign(traced, opts);
  ::unsetenv(campaign::kCrashRunEnv);
  EXPECT_EQ(outcome.runsFailed, 1u);
  // The injected _exit(86) dumped the worker's flight ring post-mortem: the
  // file parses as trace JSONL (header line skipped) and names the cause.
  const std::string dump = readFile(dumpPath);
  EXPECT_NE(dump.find("campaign-crash-injected"), std::string::npos);
  EXPECT_NE(dump.find("flight-recorder"), std::string::npos);
  (void)obs::parseTraceJsonl(dump);  // must not throw
  std::remove(dumpPath.c_str());
  cleanup(opts);
}

TEST_F(CampaignEndToEnd, WorkerCrashRecordsFailureAndCompletes) {
  auto opts = options("crash");
  opts.workers = 2;
  opts.metricsOutPath = tmpPath("crash_metrics.json");
  ::setenv(campaign::kCrashRunEnv, "mlr/baseline/s3", 1);
  const auto outcome = campaign::runCampaign(spec_, opts);
  ::unsetenv(campaign::kCrashRunEnv);
  EXPECT_EQ(outcome.runsExecuted, 8u);
  EXPECT_EQ(outcome.runsFailed, 1u);
  EXPECT_GE(outcome.pool.crashes, 1u);
  const std::string json = readFile(opts.outPath);
  EXPECT_NE(json.find("\"runs_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("worker process died mid-run"), std::string::npos);
  // The merged registry still writes — failed runs contribute nothing, and
  // the campaign bookkeeping records the failure.
  const std::string metrics = readFile(opts.metricsOutPath);
  EXPECT_NE(metrics.find("wmsn_campaign_runs_failed"), std::string::npos);
  EXPECT_NE(metrics.find("wmsn_campaign_runs_total"), std::string::npos);
  cleanup(opts);
}

}  // namespace
