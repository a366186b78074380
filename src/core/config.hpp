#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/adversary.hpp"
#include "core/topology_control.hpp"
#include "fault/plan.hpp"
#include "net/energy.hpp"
#include "net/medium.hpp"
#include "net/sensor_network.hpp"
#include "routing/flooding.hpp"
#include "routing/leach.hpp"
#include "routing/diffusion.hpp"
#include "routing/pegasis.hpp"
#include "routing/spin.hpp"
#include "routing/teen.hpp"
#include "routing/mlr.hpp"
#include "routing/secmlr.hpp"
#include "routing/single_sink.hpp"
#include "routing/spr.hpp"
#include "workload/workload.hpp"

namespace wmsn::core {

enum class ProtocolKind : std::uint8_t {
  kFlooding,
  kGossip,
  kSpin,
  kDiffusion,
  kLeach,
  kPegasis,
  kTeen,
  kSingleSink,
  kSpr,
  kMlr,
  kSecMlr,
};

std::string toString(ProtocolKind kind);

enum class DeploymentKind : std::uint8_t { kUniform, kGrid, kClustered };

std::string toString(DeploymentKind kind);

/// A scheduled gateway failure (ROBUST experiment fault injection).
struct GatewayFailure {
  std::uint32_t round = 0;
  std::size_t gatewayOrdinal = 0;  ///< index into the gateway list
};

/// A localised traffic burst (§4.2's "a forest fire occurs" scenario):
/// sensors within `radius` of a feasible place send extra packets from
/// `startRound` on — the §4.3 load-balance stressor.
struct HotspotConfig {
  bool enabled = false;
  std::size_t placeOrdinal = 0;  ///< burst centre = feasiblePlaces[ordinal]
  double radius = 60.0;
  std::uint32_t extraPacketsPerSensor = 6;
  std::uint32_t startRound = 1;
};

/// What the run records beyond the end-of-run RunResult aggregates. All off
/// by default — observability is opt-in so the hot path stays at seed cost.
/// When any option is on, the run's RunResult carries a RunObservations.
struct ObsOptions {
  /// Fill a MetricsRegistry (counters/gauges/histograms with
  /// protocol/node/kind labels) from TrafficStats, the MAC queues, the
  /// energy model and the routing protocols at end of run.
  bool metrics = false;
  /// Snapshot a RoundSample at every round boundary: PDR, bytes, queue
  /// depths, per-gateway load, energy min/mean/max/D².
  bool timeseries = false;
  /// Wall-clock phase profiler (event dispatch, MAC contention, crypto,
  /// route maintenance). Diagnostic only — its numbers are not
  /// deterministic, unlike everything else a run emits.
  bool profile = false;
  /// Causal packet tracing: retain per-reading lifecycle spans (originate,
  /// enqueue, MAC, per-hop forward/recv, drops with reason, reroutes, first
  /// delivery) for Chrome-trace JSONL export and route diagnosis. Spans are
  /// emitted from simulation state only — no RNG draws, no wall clock — so
  /// enabling tracing never perturbs a run's results.
  bool traceSpans = false;
  /// Deterministic head sampling for retained spans: a reading is kept when
  /// hash(uid) % 1000 < traceSamplePermille. Network-scope events (uid 0)
  /// are always kept. 1000 = trace everything.
  std::uint32_t traceSamplePermille = 1000;
  /// Deterministic work-counter ledger (frames, scans, pairs examined, RNG
  /// draws, ...) plus non-deterministic resource telemetry (peak RSS,
  /// allocations, rounds/sec). Counters derive from simulation state only
  /// and export through a dedicated perf channel — enabling them never
  /// perturbs metrics/timeseries/trace output bytes.
  bool perf = false;

  bool any() const {
    return metrics || timeseries || profile || traceSpans || perf;
  }
};

/// Everything needed to build and run one simulated scenario. Every field
/// has a sane default so examples stay short; benches override what they
/// sweep.
struct ScenarioConfig {
  // --- topology -------------------------------------------------------------
  DeploymentKind deployment = DeploymentKind::kUniform;
  std::size_t sensorCount = 100;
  std::size_t gatewayCount = 3;      ///< m
  std::size_t feasiblePlaceCount = 6;///< |P| (MLR, §5.3)
  std::size_t clusterCount = 4;      ///< for kClustered
  double width = 200.0;
  double height = 200.0;
  double radioRange = 30.0;
  bool lossyRadio = false;           ///< LogDistance fringe instead of disk

  // --- protocol ---------------------------------------------------------------
  ProtocolKind protocol = ProtocolKind::kMlr;
  routing::FloodingParams flooding;
  routing::SpinParams spin;
  routing::DiffusionParams diffusion;
  routing::LeachParams leach;
  routing::PegasisParams pegasis;
  routing::TeenParams teen;
  routing::SingleSinkParams singleSink;
  routing::SprParams spr;
  routing::MlrParams mlr;
  routing::SecMlrConfig secmlr;

  // --- traffic & rounds --------------------------------------------------------
  std::uint32_t rounds = 10;
  sim::Time roundDuration = sim::Time::seconds(20.0);
  std::uint32_t packetsPerSensorPerRound = 1;  ///< T in eq. (3)
  std::size_t readingBytes = 24;
  /// Offset into each round before application traffic starts (discovery
  /// floods and TESLA disclosures need to settle first).
  sim::Time trafficStart = sim::Time::seconds(4.0);
  /// Extra simulated time after the last round so in-flight frames land.
  sim::Time drainGrace = sim::Time::seconds(2.0);

  // --- workload engine ---------------------------------------------------------
  /// Traffic process driving the application layer. The default
  /// (kLegacyRounds) reproduces the original per-round scheduling exactly;
  /// the other kinds (periodic/Poisson/burst) are the offered-load axis of
  /// the capacity experiments.
  workload::WorkloadConfig workload;
  /// Finite per-node MAC transmit queue. capacity 0 (default) keeps the
  /// legacy unbounded behaviour; capacity > 0 enables congestion drops and
  /// queue-depth accounting (CSMA MAC only).
  net::QueueParams macQueue;

  // --- physical layer -----------------------------------------------------------
  net::EnergyParams energy;
  net::MediumParams medium;
  net::MacKind mac = net::MacKind::kCsma;
  bool gatewaysBatteryLimited = false;

  // --- gateway mobility ------------------------------------------------------------
  bool gatewaysMove = true;  ///< rotating-random schedule over |P| places
  /// §4.1 deployment model: choose the initial gateway places with the
  /// greedy hop-cost planner (core/placement.hpp) instead of the first m
  /// feasible places. Implies a static schedule (planned positions stay).
  bool planGatewayPlacement = false;

  // --- traffic shaping & topology control ----------------------------------------------
  HotspotConfig hotspot;
  SleepParams sleep;  ///< §4.4 GAF-style duty cycling

  // --- fault & attack injection ------------------------------------------------------
  std::vector<GatewayFailure> failures;
  /// Fault-injection plan (src/fault): scheduled and seeded-random
  /// crash/recover events plus Gilbert–Elliott link loss. Empty by default;
  /// with an empty plan the run is byte-identical to a build without the
  /// fault subsystem. Random processes derive from `seed`, so replay is
  /// exact at any --threads.
  fault::FaultPlan faults;
  attacks::AttackPlan attack;
  std::size_t attackerCount = 0;  ///< auto-picks sensors if attack.attackers empty

  // --- observability ---------------------------------------------------------------------
  ObsOptions obs;

  // --- run control ---------------------------------------------------------------------
  bool stopAtFirstDeath = false;  ///< lifetime mode: run until a sensor dies
  std::uint64_t seed = 1;

  /// Cross-field sanity checks; throws PreconditionError with a message
  /// naming the offending field.
  void validate() const;
};

/// Applies one `key = value` setting: the one place text becomes a
/// ScenarioConfig. Campaign specs apply their base settings, variant bundles
/// and axis values through it, and wmsn_cli's scenario flags are these keys:
/// `--sensors 80` is `sensors = 80`, a switch flag such as `--static` is
/// `static = on`, and the fault flags build `fault` tokens. EXPERIMENTS.md
/// lists the keys. Numbers go through wmsn::parseNumber. Throws
/// PreconditionError naming the key on bad input.
void applySetting(ScenarioConfig& cfg, const std::string& key,
                  const std::string& value);

/// The names the `protocol` or `attack` setting accepts (wmsn_cli --list).
std::vector<std::string> settingNames(const std::string& key);

}  // namespace wmsn::core
