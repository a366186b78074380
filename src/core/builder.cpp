#include "core/builder.hpp"

#include <optional>

#include "core/placement.hpp"
#include "net/unit_disk.hpp"
#include "routing/flooding.hpp"
#include "routing/leach.hpp"
#include "routing/diffusion.hpp"
#include "routing/pegasis.hpp"
#include "routing/spin.hpp"
#include "routing/teen.hpp"
#include "routing/secmlr.hpp"
#include "routing/single_sink.hpp"
#include "routing/spr.hpp"
#include "util/require.hpp"

namespace wmsn::core {

namespace {

std::unique_ptr<net::RadioModel> makeRadio(const ScenarioConfig& config) {
  if (config.lossyRadio)
    return std::make_unique<net::LogDistanceRadio>(config.radioRange * 0.8,
                                                   config.radioRange);
  return std::make_unique<net::UnitDiskRadio>(config.radioRange);
}

routing::ProtocolStack::Factory makeFactory(const ScenarioConfig& config,
                                            std::size_t nodeCount) {
  switch (config.protocol) {
    case ProtocolKind::kFlooding:
      return [params = config.flooding](net::SensorNetwork& n, net::NodeId id,
                                        const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::FloodingRouting>(n, id, k, params);
      };
    case ProtocolKind::kGossip:
      return [params = config.flooding](net::SensorNetwork& n, net::NodeId id,
                                        const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::GossipRouting>(n, id, k, params);
      };
    case ProtocolKind::kSpin:
      return [params = config.spin](net::SensorNetwork& n, net::NodeId id,
                                    const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::SpinRouting>(n, id, k, params);
      };
    case ProtocolKind::kDiffusion:
      return [params = config.diffusion](net::SensorNetwork& n,
                                         net::NodeId id,
                                         const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::DiffusionRouting>(n, id, k, params);
      };
    case ProtocolKind::kLeach:
      return [params = config.leach](net::SensorNetwork& n, net::NodeId id,
                                     const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::LeachRouting>(n, id, k, params);
      };
    case ProtocolKind::kPegasis:
      return [params = config.pegasis](net::SensorNetwork& n, net::NodeId id,
                                       const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::PegasisRouting>(n, id, k, params);
      };
    case ProtocolKind::kTeen:
      return [teen = config.teen, leach = config.leach](
                 net::SensorNetwork& n, net::NodeId id,
                 const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::TeenRouting>(n, id, k, teen, leach);
      };
    case ProtocolKind::kSingleSink:
      return [params = config.singleSink](net::SensorNetwork& n,
                                          net::NodeId id,
                                          const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::SingleSinkRouting>(n, id, k, params);
      };
    case ProtocolKind::kSpr:
      return [params = config.spr](net::SensorNetwork& n, net::NodeId id,
                                   const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::SprRouting>(n, id, k, params);
      };
    case ProtocolKind::kMlr:
      return [params = config.mlr](net::SensorNetwork& n, net::NodeId id,
                                   const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::MlrRouting>(n, id, k, params);
      };
    case ProtocolKind::kSecMlr:
      // One keyring and one flood ledger per scenario: every node's keys
      // derive from the same master, so the nodes share what it computes,
      // and every node keeps its flood marks in one bit table.
      return [keyring = std::make_shared<routing::SecMlrKeyring>(config.secmlr),
              ledger = std::make_shared<routing::SecMlrFloodLedger>(nodeCount),
              params = config.mlr](net::SensorNetwork& n, net::NodeId id,
                                   const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::SecMlrRouting>(n, id, k, keyring,
                                                        ledger, params);
      };
  }
  throw PreconditionError("unknown protocol kind");
}

std::unique_ptr<Scenario> assemble(const ScenarioConfig& config,
                                   std::vector<net::Point> sensorPositions,
                                   std::vector<net::Point> feasiblePlaces,
                                   std::vector<std::size_t> initialPlaces,
                                   std::unique_ptr<net::GatewaySchedule>
                                       schedule,
                                   std::optional<net::UnitDiskGraph>
                                       sensorLinks) {
  auto scenario = std::make_unique<Scenario>();
  ScenarioConfig cfg = config;

  // SecMLR's TESLA chain must span the whole run.
  if (cfg.protocol == ProtocolKind::kSecMlr) {
    const std::size_t needed =
        static_cast<std::size_t>(
            (static_cast<std::int64_t>(cfg.rounds) + 2) *
            cfg.roundDuration.us / cfg.secmlr.tesla.intervalDuration.us) +
        cfg.secmlr.tesla.disclosureDelay + 8;
    cfg.secmlr.tesla.chainLength =
        std::max(cfg.secmlr.tesla.chainLength, needed);
  }
  scenario->config = cfg;
  scenario->feasiblePlaces = feasiblePlaces;

  net::SensorNetworkParams netParams;
  netParams.energy = cfg.energy;
  netParams.medium = cfg.medium;
  // Gilbert–Elliott link loss rides in via the fault plan; seed the chains
  // from their own constant so the medium's channel stream is untouched.
  netParams.medium.linkLoss = cfg.faults.linkLoss;
  netParams.medium.linkLossSeed = cfg.seed ^ 0xfa117;
  netParams.mac = cfg.mac;
  netParams.queue = cfg.macQueue;
  netParams.gatewaysBatteryLimited = cfg.gatewaysBatteryLimited;
  netParams.seed = cfg.seed ^ 0x5eed;
  netParams.trace.retainSpans = cfg.obs.traceSpans;
  netParams.trace.samplePermille = cfg.obs.traceSamplePermille;
  // The trace stream is keyed by the scenario seed so merged multi-run
  // exports (repeat mode, campaigns) stay distinguishable per run.
  netParams.trace.streamId = cfg.seed;
  // On an ideal contention-free channel forwarding jitter serves no purpose
  // and would only perturb the floods' BFS ordering.
  if (cfg.mac == net::MacKind::kIdeal && !cfg.medium.collisions)
    netParams.floodJitter = sim::Time::zero();

  scenario->network = std::make_unique<net::SensorNetwork>(
      scenario->simulator, makeRadio(cfg), netParams);

  for (const net::Point& p : sensorPositions) scenario->network->addSensor(p);
  if (sensorLinks)
    scenario->network->medium().adoptSensorLinks(std::move(*sensorLinks));
  routing::NetworkKnowledge knowledge;
  knowledge.feasiblePlaces = feasiblePlaces;
  for (std::size_t g = 0; g < initialPlaces.size(); ++g) {
    WMSN_REQUIRE(initialPlaces[g] < feasiblePlaces.size());
    knowledge.gatewayIds.push_back(
        scenario->network->addGateway(feasiblePlaces[initialPlaces[g]]));
  }

  scenario->stack = std::make_unique<routing::ProtocolStack>(
      *scenario->network, std::move(knowledge),
      makeFactory(cfg, scenario->network->size()));

  if (schedule) {
    scenario->schedule = std::move(schedule);
  } else if (cfg.gatewaysMove && !cfg.planGatewayPlacement &&
             (cfg.protocol == ProtocolKind::kMlr ||
              cfg.protocol == ProtocolKind::kSecMlr)) {
    scenario->schedule = std::make_unique<net::RotatingRandomSchedule>(
        cfg.gatewayCount, feasiblePlaces.size(), cfg.seed ^ 0x90b17e);
  } else {
    scenario->schedule = std::make_unique<net::StaticSchedule>(
        initialPlaces, feasiblePlaces.size());
  }

  // Install the attack, if configured.
  if (cfg.attack.kind != attacks::AttackKind::kNone) {
    attacks::AttackPlan plan = cfg.attack;
    if (plan.attackers.empty() && cfg.attackerCount > 0) {
      // Deterministically pick spread-out sensors as the captured nodes.
      Rng pick(cfg.seed ^ 0xa77ac);
      std::vector<net::NodeId> candidates =
          scenario->network->sensorIds();
      // wmsn:fixed-draws — `pick` is a branch-local stream derived from
      // the scenario seed; whether the branch runs is fixed by the config.
      pick.shuffle(candidates);
      candidates.resize(std::min(cfg.attackerCount, candidates.size()));
      plan.attackers = candidates;
    }
    const auto victim = cfg.protocol == ProtocolKind::kSecMlr
                            ? attacks::VictimProtocol::kSecMlr
                            : attacks::VictimProtocol::kMlr;
    attacks::installAttack(*scenario->stack, *scenario->network, plan, victim,
                           cfg.mlr);
    scenario->config.attack = plan;  // expose the chosen attacker ids
  }

  return scenario;
}

}  // namespace

std::unique_ptr<Scenario> buildScenario(const ScenarioConfig& config) {
  config.validate();
  Rng rng(config.seed);

  net::DeploymentParams dp;
  dp.sensorCount = config.sensorCount;
  dp.gatewayCount = config.gatewayCount;
  dp.width = config.width;
  dp.height = config.height;
  dp.radioRange = config.radioRange;

  // Retry layouts until the initial gateway placement covers every sensor.
  for (int attempt = 0; attempt < 50; ++attempt) {
    net::Deployment d;
    switch (config.deployment) {
      case DeploymentKind::kUniform:
        d = net::uniformDeployment(dp, rng);
        break;
      case DeploymentKind::kGrid:
        d = net::gridDeployment(dp, rng);
        break;
      case DeploymentKind::kClustered:
        d = net::clusteredDeployment(dp, config.clusterCount, rng);
        break;
    }
    auto places = net::feasiblePlaces(dp, config.feasiblePlaceCount, rng);

    std::vector<std::size_t> initialPlaces;
    if (config.planGatewayPlacement) {
      initialPlaces = planGatewayPlaces(d.sensors, places,
                                        config.gatewayCount,
                                        config.radioRange);
    } else {
      for (std::size_t g = 0; g < config.gatewayCount; ++g)
        initialPlaces.push_back(g);  // matches RotatingRandomSchedule round 0
    }

    // Gateways move between rounds, so the layout must stay routable for
    // ANY placement: the sensor-only graph is one component, and every
    // feasible place is radio-attached to it (a gateway parked at a
    // detached place could never announce itself). The graph that answers
    // this is the one the medium walks, so it is built once.
    net::UnitDiskGraph sensorLinks(d.sensors, config.radioRange);
    if (!sensorLinks.connected()) continue;
    if (!net::placesAttached(places, d.sensors, config.radioRange * 0.9))
      continue;

    return assemble(config, std::move(d.sensors), std::move(places),
                    std::move(initialPlaces), nullptr, std::move(sensorLinks));
  }
  throw PreconditionError(
      "no connected layout found for this config; increase density or range");
}

std::unique_ptr<Scenario> buildScenarioAt(
    const ScenarioConfig& config, std::vector<net::Point> sensorPositions,
    std::vector<net::Point> feasiblePlaces,
    std::vector<std::size_t> gatewayPlaceOrdinals,
    std::unique_ptr<net::GatewaySchedule> schedule) {
  WMSN_REQUIRE(!gatewayPlaceOrdinals.empty());
  ScenarioConfig cfg = config;
  cfg.sensorCount = sensorPositions.size();
  cfg.gatewayCount = gatewayPlaceOrdinals.size();
  cfg.feasiblePlaceCount = feasiblePlaces.size();
  cfg.validate();
  return assemble(cfg, std::move(sensorPositions), std::move(feasiblePlaces),
                  std::move(gatewayPlaceOrdinals), std::move(schedule),
                  std::nullopt);
}

}  // namespace wmsn::core
