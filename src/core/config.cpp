#include "core/config.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::core {

namespace {

template <class E>
struct Named {
  const char* name;
  E value;
};

// The names the enumerated settings accept. The protocol and deployment
// tables also spell toString.
constexpr Named<ProtocolKind> kProtocols[] = {
    {"flooding", ProtocolKind::kFlooding},
    {"gossip", ProtocolKind::kGossip},
    {"spin", ProtocolKind::kSpin},
    {"diffusion", ProtocolKind::kDiffusion},
    {"leach", ProtocolKind::kLeach},
    {"pegasis", ProtocolKind::kPegasis},
    {"teen", ProtocolKind::kTeen},
    {"single-sink", ProtocolKind::kSingleSink},
    {"spr", ProtocolKind::kSpr},
    {"mlr", ProtocolKind::kMlr},
    {"secmlr", ProtocolKind::kSecMlr},
};
constexpr Named<DeploymentKind> kDeployments[] = {
    {"uniform", DeploymentKind::kUniform},
    {"grid", DeploymentKind::kGrid},
    {"clustered", DeploymentKind::kClustered},
};
constexpr Named<workload::WorkloadKind> kWorkloads[] = {
    {"legacy", workload::WorkloadKind::kLegacyRounds},
    {"periodic", workload::WorkloadKind::kPeriodic},
    {"poisson", workload::WorkloadKind::kPoisson},
    {"burst", workload::WorkloadKind::kBurst},
};
constexpr Named<net::QueuePolicy> kQueuePolicies[] = {
    {"drop-tail", net::QueuePolicy::kDropTail},
    {"drop-oldest", net::QueuePolicy::kDropOldest},
};
constexpr Named<attacks::AttackKind> kAttacks[] = {
    {"none", attacks::AttackKind::kNone},
    {"replay", attacks::AttackKind::kReplay},
    {"spoof", attacks::AttackKind::kSpoofMove},
    {"selective", attacks::AttackKind::kSelectiveForward},
    {"sinkhole", attacks::AttackKind::kSinkhole},
    {"hello-flood", attacks::AttackKind::kHelloFlood},
    {"sybil", attacks::AttackKind::kSybil},
    {"wormhole", attacks::AttackKind::kWormhole},
    {"ack-spoof", attacks::AttackKind::kAckSpoof},
};

template <class E, std::size_t N>
std::string nameOf(const Named<E> (&table)[N], E value) {
  for (const auto& [name, v] : table)
    if (v == value) return name;
  return "unknown";
}

template <class E, std::size_t N>
std::vector<std::string> namesOf(const Named<E> (&table)[N]) {
  std::vector<std::string> out;
  for (const auto& entry : table) out.push_back(entry.name);
  return out;
}

template <class E, std::size_t N>
E parseName(const std::string& key, const std::string& value,
            const Named<E> (&table)[N]) {
  for (const auto& [name, v] : table)
    if (value == name) return v;
  throw PreconditionError("setting '" + key + "': unknown value '" + value +
                          "'");
}

template <class T>
T parseSetting(const std::string& key, const std::string& value) {
  return parseNumber<T>("setting '" + key + "'", value);
}

bool parseSwitch(const std::string& key, const std::string& value) {
  if (value == "on" || value == "true") return true;
  if (value == "off" || value == "false") return false;
  throw PreconditionError("setting '" + key + "': expected on/off, got '" +
                          value + "'");
}

/// The random-churn tokens of a `fault` value and the field each sets.
struct ChurnToken {
  const char* prefix;
  std::uint32_t fault::FaultPlan::*field;
};
constexpr ChurnToken kChurnTokens[] = {
    {"smtbf:", &fault::FaultPlan::sensorMtbfRounds},
    {"smttr:", &fault::FaultPlan::sensorMttrRounds},
    {"gwmtbf:", &fault::FaultPlan::gatewayMtbfRounds},
    {"gwmttr:", &fault::FaultPlan::gatewayMttrRounds},
};

/// One token of a `fault` value: a scheduled event list in the --fault-plan
/// grammar (gw0@3, s17+@5), `smtbf:N`/`smttr:N` sensor churn,
/// `gwmtbf:N`/`gwmttr:N` gateway churn, or `loss:P` Gilbert–Elliott loss at
/// steady-state fraction P.
void applyFaultToken(fault::FaultPlan& plan, const std::string& token) {
  const auto* churn = std::find_if(
      std::begin(kChurnTokens), std::end(kChurnTokens),
      [&](const ChurnToken& c) { return token.rfind(c.prefix, 0) == 0; });
  if (churn != std::end(kChurnTokens)) {
    plan.*churn->field = parseNumber<std::uint32_t>(
        "rounds", std::string_view(token).substr(std::strlen(churn->prefix)));
  } else if (token.rfind("loss:", 0) == 0) {
    const double p = parseNumber<double>("loss fraction",
                                         std::string_view(token).substr(5));
    if (!(p >= 0.0 && p < 1.0))
      throw PreconditionError("loss fraction must be in [0,1)");
    if (p > 0.0) {
      // Solve the two-state chain for the requested steady-state loss,
      // keeping the default burst length (1/pBadToGood frames).
      plan.linkLoss.enabled = true;
      plan.linkLoss.pGoodToBad = plan.linkLoss.pBadToGood * p / (1.0 - p);
    }
  } else {
    const auto events = fault::parseFaultPlan(token);
    plan.events.insert(plan.events.end(), events.begin(), events.end());
  }
}

/// A `fault` value, `none` or ';'-joined tokens, replaces the whole plan.
void applyFault(ScenarioConfig& cfg, const std::string& value) {
  cfg.faults = fault::FaultPlan{};
  if (value == "none") return;
  for (const std::string& token : splitList(value, ';')) {
    try {
      applyFaultToken(cfg.faults, token);
    } catch (const PreconditionError& e) {
      throw PreconditionError("setting 'fault' token '" + token +
                              "': " + e.what());
    }
  }
}

}  // namespace

std::string toString(ProtocolKind kind) { return nameOf(kProtocols, kind); }

std::string toString(DeploymentKind kind) {
  return nameOf(kDeployments, kind);
}

std::vector<std::string> settingNames(const std::string& key) {
  if (key == "protocol") return namesOf(kProtocols);
  if (key == "attack") return namesOf(kAttacks);
  throw PreconditionError("setting '" + key + "' has no name list");
}

void applySetting(ScenarioConfig& cfg, const std::string& key,
                  const std::string& value) {
  if (key == "protocol") {
    cfg.protocol = parseName(key, value, kProtocols);
  } else if (key == "sensors") {
    cfg.sensorCount = parseSetting<std::size_t>(key, value);
  } else if (key == "gateways") {
    cfg.gatewayCount = parseSetting<std::size_t>(key, value);
  } else if (key == "places") {
    cfg.feasiblePlaceCount = parseSetting<std::size_t>(key, value);
  } else if (key == "clusters") {
    cfg.clusterCount = parseSetting<std::size_t>(key, value);
  } else if (key == "area") {
    cfg.width = cfg.height = parseSetting<double>(key, value);
  } else if (key == "range") {
    cfg.radioRange = parseSetting<double>(key, value);
  } else if (key == "rounds") {
    cfg.rounds = parseSetting<std::uint32_t>(key, value);
  } else if (key == "packets") {
    cfg.packetsPerSensorPerRound = parseSetting<std::uint32_t>(key, value);
  } else if (key == "reading-bytes") {
    cfg.readingBytes = parseSetting<std::size_t>(key, value);
  } else if (key == "deployment") {
    cfg.deployment = parseName(key, value, kDeployments);
  } else if (key == "workload") {
    cfg.workload.kind = parseName(key, value, kWorkloads);
  } else if (key == "rate") {
    cfg.workload.ratePerSensor = parseSetting<double>(key, value);
    cfg.workload.burst.backgroundRate = cfg.workload.ratePerSensor;
  } else if (key == "queue") {
    cfg.macQueue.capacity = parseSetting<std::size_t>(key, value);
  } else if (key == "queue-policy") {
    cfg.macQueue.policy = parseName(key, value, kQueuePolicies);
  } else if (key == "static") {
    cfg.gatewaysMove = !parseSwitch(key, value);
  } else if (key == "plan") {
    cfg.planGatewayPlacement = parseSwitch(key, value);
  } else if (key == "sleep") {
    cfg.sleep.enabled = parseSwitch(key, value);
  } else if (key == "reliable") {
    cfg.mlr.reliableForwarding = parseSwitch(key, value);
  } else if (key == "lossy") {
    cfg.lossyRadio = parseSwitch(key, value);
  } else if (key == "failover") {
    // The fault-run default: MLR/SecMLR heartbeat failover plus SPR
    // re-discovery backoff, or the legacy ablation when off.
    const bool on = parseSwitch(key, value);
    cfg.mlr.failover = on;
    if (on && cfg.spr.retryBackoff.us == 0)
      cfg.spr.retryBackoff = sim::Time::seconds(0.2);
  } else if (key == "metrics") {
    cfg.obs.metrics = parseSwitch(key, value);
  } else if (key == "perf") {
    cfg.obs.perf = parseSwitch(key, value);
  } else if (key == "trace") {
    cfg.obs.traceSpans = parseSwitch(key, value);
  } else if (key == "trace-sample") {
    const double f = parseSetting<double>(key, value);
    if (!(f > 0.0 && f <= 1.0))
      throw PreconditionError("setting 'trace-sample': fraction must be in "
                              "(0,1], got '" + value + "'");
    cfg.obs.traceSamplePermille =
        static_cast<std::uint32_t>(f * 1000.0 + 0.5);
  } else if (key == "attack") {
    cfg.attack.kind = parseName(key, value, kAttacks);
  } else if (key == "attackers") {
    cfg.attackerCount = parseSetting<std::size_t>(key, value);
  } else if (key == "fault") {
    applyFault(cfg, value);
  } else {
    throw PreconditionError("unknown setting key '" + key + "'");
  }
}

void ScenarioConfig::validate() const {
  WMSN_REQUIRE_MSG(sensorCount >= 1, "sensorCount");
  WMSN_REQUIRE_MSG(gatewayCount >= 1, "gatewayCount");
  WMSN_REQUIRE_MSG(feasiblePlaceCount >= gatewayCount,
                   "feasiblePlaceCount must be >= gatewayCount (|P| >= m)");
  WMSN_REQUIRE_MSG(width > 0.0 && height > 0.0, "area");
  WMSN_REQUIRE_MSG(radioRange > 0.0, "radioRange");
  WMSN_REQUIRE_MSG(rounds >= 1, "rounds");
  WMSN_REQUIRE_MSG(roundDuration.us > 0, "roundDuration");
  WMSN_REQUIRE_MSG(trafficStart < roundDuration,
                   "trafficStart must fall inside the round");
  for (const GatewayFailure& f : failures)
    WMSN_REQUIRE_MSG(f.gatewayOrdinal < gatewayCount, "failure ordinal");
  for (const fault::FaultEvent& e : faults.events) {
    const std::size_t limit = e.target == fault::FaultTargetKind::kSensor
                                  ? sensorCount
                                  : gatewayCount;
    WMSN_REQUIRE_MSG(e.ordinal < limit, "fault plan event ordinal");
  }
  {
    const auto& ge = faults.linkLoss;
    WMSN_REQUIRE_MSG(ge.pGoodToBad >= 0.0 && ge.pGoodToBad <= 1.0,
                     "linkLoss.pGoodToBad");
    WMSN_REQUIRE_MSG(ge.pBadToGood >= 0.0 && ge.pBadToGood <= 1.0,
                     "linkLoss.pBadToGood");
    WMSN_REQUIRE_MSG(ge.lossGood >= 0.0 && ge.lossGood <= 1.0,
                     "linkLoss.lossGood");
    WMSN_REQUIRE_MSG(ge.lossBad >= 0.0 && ge.lossBad <= 1.0,
                     "linkLoss.lossBad");
    if (ge.enabled)
      WMSN_REQUIRE_MSG(ge.pGoodToBad + ge.pBadToGood > 0.0,
                       "linkLoss needs at least one nonzero transition");
  }
  if (attack.kind == attacks::AttackKind::kWormhole)
    WMSN_REQUIRE_MSG(attackerCount == 2 || attack.attackers.size() == 2,
                     "wormhole needs exactly 2 attackers");
  if (attack.kind != attacks::AttackKind::kNone)
    WMSN_REQUIRE_MSG(protocol == ProtocolKind::kMlr ||
                         protocol == ProtocolKind::kSecMlr,
                     "attacks target MLR/SecMLR networks");
  if (workload.kind == workload::WorkloadKind::kPeriodic ||
      workload.kind == workload::WorkloadKind::kPoisson)
    WMSN_REQUIRE_MSG(workload.ratePerSensor > 0.0,
                     "workload ratePerSensor must be positive");
  if (workload.kind == workload::WorkloadKind::kBurst) {
    WMSN_REQUIRE_MSG(workload.burst.frontSpeed > 0.0, "burst frontSpeed");
    WMSN_REQUIRE_MSG(workload.burst.radius > 0.0, "burst radius");
    WMSN_REQUIRE_MSG(workload.burst.reportInterval > 0.0,
                     "burst reportInterval");
    WMSN_REQUIRE_MSG(workload.burst.backgroundRate >= 0.0,
                     "burst backgroundRate");
  }
  if (macQueue.capacity > 0)
    WMSN_REQUIRE_MSG(mac == net::MacKind::kCsma,
                     "finite MAC queues require the CSMA MAC");
  if (sleep.enabled)
    WMSN_REQUIRE_MSG(protocol == ProtocolKind::kMlr,
                     "sleep scheduling requires MLR's delegation support "
                     "(a sleeping SecMLR node cannot hold secure sessions)");
}

}  // namespace wmsn::core
