#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "util/require.hpp"

namespace wmsn::core {
namespace {

ScenarioConfig smallConfig() {
  ScenarioConfig cfg;
  cfg.sensorCount = 40;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = 140;
  cfg.height = 140;
  cfg.rounds = 3;
  cfg.seed = 5;
  return cfg;
}

// --- config validation ----------------------------------------------------------

TEST(Config, ValidatesFieldRanges) {
  ScenarioConfig cfg = smallConfig();
  cfg.feasiblePlaceCount = 1;  // < gatewayCount
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = smallConfig();
  cfg.trafficStart = cfg.roundDuration;  // must fall inside the round
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = smallConfig();
  cfg.failures.push_back({0, 9});  // no gateway ordinal 9
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = smallConfig();
  cfg.attack.kind = attacks::AttackKind::kSinkhole;
  cfg.protocol = ProtocolKind::kFlooding;  // attacks target MLR/SecMLR
  EXPECT_THROW(cfg.validate(), PreconditionError);

  EXPECT_NO_THROW(smallConfig().validate());
}

TEST(Config, ToStringCoversKinds) {
  EXPECT_EQ(toString(ProtocolKind::kSecMlr), "secmlr");
  EXPECT_EQ(toString(ProtocolKind::kSingleSink), "single-sink");
  EXPECT_EQ(toString(DeploymentKind::kClustered), "clustered");
}

// --- builder ---------------------------------------------------------------------

TEST(Builder, BuildsConnectedScenario) {
  auto scenario = buildScenario(smallConfig());
  EXPECT_EQ(scenario->network->sensorIds().size(), 40u);
  EXPECT_EQ(scenario->network->gatewayIds().size(), 2u);
  EXPECT_EQ(scenario->feasiblePlaces.size(), 4u);
  EXPECT_TRUE(scenario->network->allSensorsCovered());
}

TEST(Builder, AutoPicksAttackersFromSensors) {
  ScenarioConfig cfg = smallConfig();
  cfg.attack.kind = attacks::AttackKind::kSelectiveForward;
  cfg.attackerCount = 3;
  auto scenario = buildScenario(cfg);
  EXPECT_EQ(scenario->config.attack.attackers.size(), 3u);
  for (net::NodeId id : scenario->config.attack.attackers)
    EXPECT_FALSE(scenario->network->node(id).isGateway());
}

TEST(Builder, SecMlrChainSizedToRun) {
  ScenarioConfig cfg = smallConfig();
  cfg.protocol = ProtocolKind::kSecMlr;
  cfg.rounds = 30;
  auto scenario = buildScenario(cfg);
  const auto& tesla = scenario->config.secmlr.tesla;
  EXPECT_GE(tesla.chainLength,
            static_cast<std::size_t>(30 * cfg.roundDuration.us /
                                     tesla.intervalDuration.us));
}

TEST(Builder, ExplicitLayoutRespected) {
  ScenarioConfig cfg = smallConfig();
  auto scenario = buildScenarioAt(
      cfg, {{0, 0}, {20, 0}}, {{-20, 0}, {40, 0}}, {0});
  EXPECT_EQ(scenario->network->sensorIds().size(), 2u);
  EXPECT_EQ(scenario->network->gatewayIds().size(), 1u);
  EXPECT_EQ(scenario->network->node(scenario->network->gatewayIds()[0])
                .position(),
            (net::Point{-20, 0}));
}

TEST(Builder, ReadingBytesReachProtocolBuiltReadings) {
  // SPIN, diffusion and PEGASIS put readings they build themselves on the
  // air; every one of their data frames carries one reading, so the
  // scenario's reading size moves bytes per data frame one for one.
  for (const ProtocolKind kind : {ProtocolKind::kSpin,
                                  ProtocolKind::kDiffusion,
                                  ProtocolKind::kPegasis}) {
    SCOPED_TRACE(toString(kind));
    double bytesPerFrame[2] = {0.0, 0.0};
    const std::size_t sizes[2] = {24, 48};
    for (int i = 0; i < 2; ++i) {
      ScenarioConfig cfg = smallConfig();
      cfg.protocol = kind;
      cfg.rounds = 2;
      cfg.readingBytes = sizes[i];
      const RunResult r = runScenario(cfg);
      ASSERT_GT(r.dataFrames, 0u);
      bytesPerFrame[i] = static_cast<double>(r.dataBytes) /
                         static_cast<double>(r.dataFrames);
    }
    EXPECT_DOUBLE_EQ(bytesPerFrame[1] - bytesPerFrame[0], 24.0);
  }
}

// --- metrics ---------------------------------------------------------------------

TEST(Metrics, EnergySummaryMatchesPaperDefinitions) {
  sim::Simulator simulator;
  net::SensorNetworkParams params;
  params.energy.initialEnergyJ = 10.0;
  net::SensorNetwork network(
      simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
  const auto a = network.addSensor({0, 0});
  const auto b = network.addSensor({10, 0});
  network.node(a).battery().drawTx(2.0);
  network.node(b).battery().drawRx(4.0);

  const EnergySummary s = summarizeSensorEnergy(network);
  EXPECT_DOUBLE_EQ(s.totalJ, 6.0);   // ΣEᵢ (eq. 2)
  EXPECT_DOUBLE_EQ(s.meanJ, 3.0);
  EXPECT_DOUBLE_EQ(s.varianceD2, 2.0);  // (2−3)² + (4−3)² (eq. 1)
  EXPECT_DOUBLE_EQ(s.minJ, 2.0);
  EXPECT_DOUBLE_EQ(s.maxJ, 4.0);
  EXPECT_DOUBLE_EQ(s.txJ, 2.0);
  EXPECT_DOUBLE_EQ(s.rxJ, 4.0);
  EXPECT_NEAR(s.jainFairness, 36.0 / (2 * 20.0), 1e-12);
}

// --- experiment ------------------------------------------------------------------

TEST(Experiment, DeterministicAcrossRuns) {
  const RunResult a = runScenario(smallConfig());
  const RunResult b = runScenario(smallConfig());
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.controlFrames, b.controlFrames);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_DOUBLE_EQ(a.sensorEnergy.totalJ, b.sensorEnergy.totalJ);
  EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ScenarioConfig cfg = smallConfig();
  const RunResult a = runScenario(cfg);
  cfg.seed = 6;
  const RunResult b = runScenario(cfg);
  EXPECT_NE(a.eventsProcessed, b.eventsProcessed);
}

TEST(Experiment, RoundObserverFiresPerRound) {
  auto scenario = buildScenario(smallConfig());
  Experiment experiment(*scenario);
  std::vector<std::uint32_t> rounds;
  experiment.setRoundObserver(
      [&](std::uint32_t round) { rounds.push_back(round); });
  const RunResult result = experiment.run();
  EXPECT_EQ(result.roundsCompleted, 3u);
  EXPECT_EQ(rounds, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Experiment, GatewayFailureReducesDelivery) {
  ScenarioConfig cfg = smallConfig();
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.gatewaysMove = false;
  cfg.rounds = 4;
  const RunResult healthy = runScenario(cfg);
  cfg.failures.push_back({2, 0});  // the only gateway dies at round 2
  const RunResult failed = runScenario(cfg);
  EXPECT_LT(failed.deliveryRatio, healthy.deliveryRatio - 0.3);
}

TEST(Experiment, StopAtFirstDeathEndsRun) {
  ScenarioConfig cfg = smallConfig();
  cfg.energy.initialEnergyJ = 0.003;  // tiny battery → early death
  cfg.rounds = 500;
  cfg.stopAtFirstDeath = true;
  cfg.packetsPerSensorPerRound = 4;
  const RunResult result = runScenario(cfg);
  EXPECT_TRUE(result.firstDeathObserved);
  EXPECT_LT(result.roundsCompleted, 500u);
  EXPECT_EQ(result.firstDeathRound + 1, result.roundsCompleted);
}

// --- parallel sweeps -----------------------------------------------------------------

TEST(Sweep, ParallelMatchesSerial) {
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg = smallConfig();
    cfg.seed = seed;
    configs.push_back(cfg);
  }
  const auto parallel = runScenariosParallel(configs, 4);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunResult serial = runScenario(configs[i]);
    EXPECT_EQ(parallel[i].eventsProcessed, serial.eventsProcessed);
    EXPECT_EQ(parallel[i].delivered, serial.delivered);
  }
}

TEST(Sweep, PropagatesWorkerExceptions) {
  std::vector<ScenarioConfig> configs{smallConfig()};
  configs[0].sensorCount = 3;
  configs[0].width = 5000;  // hopeless density → builder throws
  configs[0].height = 5000;
  EXPECT_THROW(runScenariosParallel(configs, 2), PreconditionError);
}

TEST(Sweep, MeanOver) {
  RunResult a, b;
  a.deliveryRatio = 0.8;
  b.deliveryRatio = 1.0;
  EXPECT_DOUBLE_EQ(
      meanOver({a, b}, [](const RunResult& r) { return r.deliveryRatio; }),
      0.9);
}

// --- report ----------------------------------------------------------------------------

TEST(Report, TablesRender) {
  const RunResult result = runScenario(smallConfig());
  EXPECT_FALSE(summaryLine(result).empty());
  const TextTable table = comparisonTable({result}, {"test-run"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.str().find("test-run"), std::string::npos);
  const TextTable load = gatewayLoadTable(result);
  EXPECT_EQ(load.rows(), result.perGatewayDeliveries.size());
}

}  // namespace
}  // namespace wmsn::core
