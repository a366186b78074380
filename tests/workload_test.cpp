#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/wmsn.hpp"
#include "net/mac.hpp"
#include "net/radio.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "workload/workload.hpp"

namespace wmsn {
namespace {

std::vector<workload::SensorInfo> lineOfSensors(std::size_t count,
                                                double spacing) {
  std::vector<workload::SensorInfo> sensors;
  for (std::size_t i = 0; i < count; ++i)
    sensors.push_back({static_cast<net::NodeId>(i),
                       {spacing * static_cast<double>(i), 100.0}});
  return sensors;
}

// --- generators ---------------------------------------------------------------

TEST(PeriodicGenerator, ExactCadencePerSensor) {
  workload::PeriodicGenerator gen(0.5, 42);  // one packet every 2 s
  const auto sensors = lineOfSensors(4, 10.0);
  const auto arrivals = gen.arrivalsInWindow(
      0, sim::Time::seconds(0.0), sim::Time::seconds(20.0), sensors);
  // Each sensor fires exactly window * rate = 10 times.
  for (const auto& s : sensors) {
    std::vector<sim::Time> times;
    for (const auto& a : arrivals)
      if (a.sensor == s.id) times.push_back(a.at);
    ASSERT_EQ(times.size(), 10u) << "sensor " << s.id;
    for (std::size_t k = 1; k < times.size(); ++k)
      EXPECT_EQ((times[k] - times[k - 1]).us, sim::Time::seconds(2.0).us);
  }
}

TEST(PeriodicGenerator, PhasesDifferAcrossSensors) {
  workload::PeriodicGenerator gen(0.1, 7);
  const auto arrivals = gen.arrivalsInWindow(
      0, sim::Time::zero(), sim::Time::seconds(10.0), lineOfSensors(8, 5.0));
  std::set<std::int64_t> firstTimes;
  for (const auto& a : arrivals) firstTimes.insert(a.at.us);
  EXPECT_GT(firstTimes.size(), 4u) << "sensors should not fire in lockstep";
}

TEST(PeriodicGenerator, WindowsTileWithoutGapsOrOverlap) {
  // Consecutive windows must partition the timeline: regenerating with the
  // same seed over [0,7) and [7,20) equals one pass over [0,20).
  const auto sensors = lineOfSensors(5, 20.0);
  workload::PeriodicGenerator whole(0.3, 99);
  workload::PeriodicGenerator split(0.3, 99);
  auto all = whole.arrivalsInWindow(0, sim::Time::zero(),
                                    sim::Time::seconds(20.0), sensors);
  auto a = split.arrivalsInWindow(0, sim::Time::zero(),
                                  sim::Time::seconds(7.0), sensors);
  const auto b = split.arrivalsInWindow(1, sim::Time::seconds(7.0),
                                        sim::Time::seconds(20.0), sensors);
  a.insert(a.end(), b.begin(), b.end());
  auto key = [](const workload::Arrival& x) {
    return std::pair<std::int64_t, net::NodeId>{x.at.us, x.sensor};
  };
  auto sortByKey = [&](std::vector<workload::Arrival>& v) {
    std::sort(v.begin(), v.end(),
              [&](const auto& l, const auto& r) { return key(l) < key(r); });
  };
  sortByKey(all);
  sortByKey(a);
  EXPECT_EQ(all, a);
}

TEST(PoissonGenerator, MeanRateWithinTolerance) {
  const double rate = 0.8;
  workload::PoissonGenerator gen(rate, 11);
  const auto sensors = lineOfSensors(50, 4.0);
  const double window = 200.0;
  const auto arrivals = gen.arrivalsInWindow(
      0, sim::Time::zero(), sim::Time::seconds(window), sensors);
  const double expected = rate * window * static_cast<double>(sensors.size());
  const double got = static_cast<double>(arrivals.size());
  // 8000 expected arrivals; allow ±4 standard deviations (~±360).
  EXPECT_NEAR(got, expected, 4.0 * std::sqrt(expected));
}

TEST(PoissonGenerator, DeterministicUnderSeedAndDiffersAcrossSeeds) {
  const auto sensors = lineOfSensors(10, 8.0);
  auto run = [&](std::uint64_t seed) {
    workload::PoissonGenerator gen(0.5, seed);
    return gen.arrivalsInWindow(0, sim::Time::zero(),
                                sim::Time::seconds(30.0), sensors);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(BurstGenerator, DeterministicUnderSeed) {
  workload::BurstParams params;
  params.backgroundRate = 0.1;
  auto run = [&](std::uint64_t seed) {
    workload::BurstGenerator gen(params, 200.0, 200.0, seed);
    std::vector<workload::Arrival> all;
    for (std::uint32_t round = 0; round < 3; ++round) {
      const auto w = gen.arrivalsInWindow(
          round, sim::Time::seconds(20.0 * round),
          sim::Time::seconds(20.0 * (round + 1)), lineOfSensors(20, 10.0));
      all.insert(all.end(), w.begin(), w.end());
    }
    return all;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(BurstGenerator, SweptSensorsReportFasterThanBackground) {
  workload::BurstParams params;
  params.frontSpeed = 10.0;
  params.radius = 30.0;
  params.reportInterval = 0.25;
  params.backgroundRate = 0.01;
  workload::BurstGenerator gen(params, 200.0, 200.0, 1);
  // A long window so the front crosses the whole field.
  std::size_t sweptRounds = 0;
  for (std::uint32_t round = 0; round < 5; ++round) {
    const auto arrivals = gen.arrivalsInWindow(
        round, sim::Time::seconds(30.0 * round),
        sim::Time::seconds(30.0 * (round + 1)), lineOfSensors(20, 10.0));
    // Background alone over 30 s * 20 sensors at 0.01 pps ≈ 6 arrivals; a
    // front crossing the sensor line adds a dense wave on top.
    if (arrivals.size() > 30) ++sweptRounds;
  }
  EXPECT_GE(sweptRounds, 1u)
      << "in 5 rounds the front should sweep the sensor line at least once";
}

// --- finite MAC queues --------------------------------------------------------

/// Two-node network: one sensor a few metres from one gateway, CSMA MAC with
/// a tiny finite queue. A burst of back-to-back sends from the sensor must
/// overflow it.
struct QueueFixture {
  sim::Simulator simulator;
  std::unique_ptr<net::SensorNetwork> network;
  net::NodeId sensor = 0;
  net::NodeId gateway = 0;

  explicit QueueFixture(net::QueueParams queue) {
    net::SensorNetworkParams params;
    params.queue = queue;
    params.medium.collisions = false;  // single sender; keep it clean
    network = std::make_unique<net::SensorNetwork>(
        simulator, std::make_unique<net::UnitDiskRadio>(30.0), params);
    sensor = network->addSensor({0.0, 0.0});
    gateway = network->addGateway({10.0, 0.0});
  }

  /// Fires `count` payload-stamped frames in one instant, runs to quiescence
  /// and returns the payload stamps that reached the gateway.
  std::set<std::uint8_t> blast(std::size_t count) {
    std::set<std::uint8_t> received;
    network->node(gateway).setReceiveHandler(
        [&](const net::Packet& p, net::NodeId) {
          if (!p.payload.empty()) received.insert(p.payload[0]);
        });
    simulator.schedule(sim::Time::zero(), [&, count] {
      for (std::size_t k = 0; k < count; ++k) {
        net::Packet p;
        p.kind = net::PacketKind::kData;
        p.origin = sensor;
        p.finalDst = gateway;
        p.hopDst = gateway;
        p.payload = Bytes(8, static_cast<std::uint8_t>(k));
        network->sendFrom(sensor, std::move(p));
      }
    });
    simulator.run();
    return received;
  }
};

TEST(MacQueue, DropTailKeepsEarliestFrames) {
  QueueFixture fx({.capacity = 3, .policy = net::QueuePolicy::kDropTail});
  const auto received = fx.blast(10);
  // One frame in service + 3 queued survive; the other 6 are rejected.
  EXPECT_EQ(received, (std::set<std::uint8_t>{0, 1, 2, 3}));
  EXPECT_EQ(fx.network->stats().queueDrops(), 6u);
  EXPECT_EQ(fx.network->node(fx.sensor).mac().queueDrops(), 6u);
  EXPECT_EQ(fx.network->node(fx.sensor).mac().peakQueueDepth(), 3u);
}

TEST(MacQueue, DropOldestKeepsFreshestFrames) {
  QueueFixture fx({.capacity = 3, .policy = net::QueuePolicy::kDropOldest});
  const auto received = fx.blast(10);
  // Frame 0 is already in service; the queue ends holding the 3 newest.
  EXPECT_EQ(received, (std::set<std::uint8_t>{0, 7, 8, 9}));
  EXPECT_EQ(fx.network->stats().queueDrops(), 6u);
}

TEST(MacQueue, NoDropsBelowCapacity) {
  QueueFixture fx({.capacity = 8, .policy = net::QueuePolicy::kDropTail});
  const auto received = fx.blast(5);
  EXPECT_EQ(received.size(), 5u);
  EXPECT_EQ(fx.network->stats().queueDrops(), 0u);
  EXPECT_GT(fx.network->node(fx.sensor)
                .mac()
                .queueDepthIntegral(fx.simulator.now()),
            0.0);
}

TEST(MacQueue, LegacyZeroCapacityNeverDropsForSpace) {
  QueueFixture fx({.capacity = 0});
  const auto received = fx.blast(10);
  EXPECT_EQ(received.size(), 10u);
  EXPECT_EQ(fx.network->stats().queueDrops(), 0u);
  EXPECT_EQ(fx.network->node(fx.sensor).mac().peakQueueDepth(), 0u);
}

TEST(MacQueue, KeepsFifoOrderWhileTheRingGrowsAndWraps) {
  QueueFixture fx({.capacity = 64, .policy = net::QueuePolicy::kDropTail});
  std::vector<std::uint8_t> order;
  fx.network->node(fx.gateway).setReceiveHandler(
      [&](const net::Packet& p, net::NodeId) { order.push_back(p.payload[0]); });
  // One send per millisecond, faster than the MAC serves them, so the queue
  // grows while frames leave its head: the ring doubles with head_ != 0.
  for (std::uint8_t k = 0; k < 40; ++k)
    fx.simulator.schedule(sim::Time::milliseconds(k), [&fx, k] {
      net::Packet p;
      p.kind = net::PacketKind::kData;
      p.origin = fx.sensor;
      p.finalDst = fx.gateway;
      p.hopDst = fx.gateway;
      p.payload = Bytes(8, k);
      fx.network->sendFrom(fx.sensor, std::move(p));
    });
  fx.simulator.run();
  ASSERT_EQ(order.size(), 40u);
  for (std::uint8_t k = 0; k < 40; ++k) EXPECT_EQ(order[k], k);
  EXPECT_GT(fx.network->node(fx.sensor).mac().peakQueueDepth(), 8u);
  EXPECT_EQ(fx.network->stats().queueDrops(), 0u);
}

TEST(MacQueue, ConstructionAllocatesNothing) {
  QueueFixture fx({.capacity = 8, .policy = net::QueuePolicy::kDropOldest});
  obs::AllocationScope allocations;
  net::CsmaMac mac(fx.network->medium(), fx.simulator, fx.sensor, Rng(1), {},
                   {.capacity = 8, .policy = net::QueuePolicy::kDropOldest});
  EXPECT_EQ(allocations.count(), 0u);
}

// --- end-to-end workload runs -------------------------------------------------

core::ScenarioConfig smallWorkloadConfig(workload::WorkloadKind kind) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 40;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = 140;
  cfg.height = 140;
  cfg.rounds = 3;
  cfg.workload.kind = kind;
  cfg.workload.ratePerSensor = 0.2;
  cfg.macQueue.capacity = 6;
  cfg.seed = 9;
  return cfg;
}

TEST(WorkloadRun, GeneratorsDriveTrafficThroughEveryProtocolPath) {
  for (const auto kind :
       {workload::WorkloadKind::kPeriodic, workload::WorkloadKind::kPoisson,
        workload::WorkloadKind::kBurst}) {
    const auto result = core::runScenario(smallWorkloadConfig(kind));
    EXPECT_GT(result.generated, 0u) << workload::toString(kind);
    EXPECT_GT(result.delivered, 0u) << workload::toString(kind);
    EXPECT_EQ(result.workload, workload::toString(kind));
    EXPECT_GT(result.offeredPps, 0.0);
  }
}

TEST(WorkloadRun, LegacyDefaultReportsLegacyWorkload) {
  core::ScenarioConfig cfg = smallWorkloadConfig(
      workload::WorkloadKind::kLegacyRounds);
  cfg.macQueue.capacity = 0;
  const auto result = core::runScenario(cfg);
  EXPECT_EQ(result.workload, "legacy-rounds");
  EXPECT_EQ(result.queueDrops, 0u);
  EXPECT_EQ(result.peakQueueDepth, 0u);
}

// --- sweep determinism --------------------------------------------------------

void expectSameResult(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.controlFrames, b.controlFrames);
  EXPECT_EQ(a.dataFrames, b.dataFrames);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.queueDrops, b.queueDrops);
  EXPECT_EQ(a.macDrops, b.macDrops);
  EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
  EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
}

TEST(SweepDeterminism, ThreadCountDoesNotChangeResults) {
  std::vector<core::ScenarioConfig> configs;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    core::ScenarioConfig cfg =
        smallWorkloadConfig(workload::WorkloadKind::kPoisson);
    cfg.seed = seed;
    configs.push_back(cfg);
    cfg = smallWorkloadConfig(workload::WorkloadKind::kLegacyRounds);
    cfg.seed = seed;
    configs.push_back(cfg);
  }
  const auto serial = core::runScenariosParallel(configs, 1);
  const auto parallel = core::runScenariosParallel(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expectSameResult(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace wmsn
