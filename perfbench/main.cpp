// wmsn_perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   wmsn_perfbench --workload <flood_grid|secmlr_mobile|campaign_churn>
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--spec-dir DIR] [--pins FILE] [--work-dir DIR]
//                  [--inject off-by-one|stale-journal]
//
// Each workload is a campaign spec under --spec-dir, loaded and expanded
// through campaign::loadSpec/campaign::expand with its seed replaced by
// --seed. --trace 0 measures the end-to-end metrics untraced; --trace 1 runs
// untraced and traced repetitions and reports the per-layer metrics, writing
// the benchmark's spans to <work-dir>/trace-<workload>-s<seed>.jsonl.
// The single-scenario workloads rotate their repetitions over four inputs,
// the spec at seeds S, S+1000, S+2000 and S+3000. Every repetition's
// deterministic output fields are checked against the pinned values in
// --pins (when its seed has a row), against the other repetitions of its
// seed, and traced against untraced. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 1 on any
// output mismatch and 2 on a usage or run error. --inject corrupts one
// result on purpose, for perfbench/selftest.py.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/record.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/builder.hpp"
#include "core/experiment.hpp"
#include "net/deployment.hpp"
#include "net/sensor_network.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_stats.hpp"
#include "obs/profiler.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wmsn;
using perfbench::Attrs;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::formatNumber;
using perfbench::secondsBetween;

/// Deterministic output fields of one run or campaign, by name.
using Fields = std::map<std::string, std::uint64_t>;

constexpr unsigned kCampaignWorkers = 2;
constexpr int kCampaignSetupIterations = 100;
/// Cheap set-ups are sampled at least this often (extra builds without a
/// run), within 5% of the time budget.
constexpr std::size_t kMinSetupSamples = 50;
/// Scenario workloads rotate their repetitions over this many inputs, the
/// spec expanded at seeds s, s + kSeedStride, ..., so that one light or
/// heavy seed does not set a run's figures.
constexpr std::uint64_t kInputsPerRun = 4;
constexpr std::uint64_t kSeedStride = 1000;

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string specDir = "perfbench/workloads";
  std::string pinsPath = "perfbench/pins.txt";
  std::string workDir = ".bench_build/perfbench/work";
  std::string inject;  ///< "", "off-by-one" or "stale-journal"
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one invocation reports.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<Metric> endToEnd;  ///< untraced
  std::vector<Metric> perLayer;  ///< traced run
  std::uint64_t attempted = 0;   ///< runs attempted
  std::uint64_t failed = 0;      ///< failed runs + output mismatches
  std::vector<std::string> problems;
};

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double childPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string describe(const Fields& f) {
  std::string out;
  for (const auto& [k, v] : f) {
    if (!out.empty()) out += ' ';
    out += k + '=' + std::to_string(v);
  }
  return out;
}

/// Runs `body(i)` for i = 0, 1, ... until at least `minReps` ran and one
/// more repetition of average length would overrun `budgetS`.
template <typename Body>
void repeatFor(double budgetS, int minReps, Body&& body) {
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    body(i);
    const double elapsed = secondsBetween(start, Clock::now());
    if (i + 1 >= minReps && elapsed * (i + 2) / (i + 1) > budgetS) break;
  }
}

/// Moves the single-threaded benchmark onto one CPU of its affinity mask per
/// repetition, in turn, so that a run samples every CPU alike instead of the
/// one the scheduler left it on: a CPU slowed by load from outside the
/// process then moves a run's median less. Restores the mask on
/// destruction. The campaign workload does not use it (its forked workers
/// would inherit the pin).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins repetition `i`. The CPU advances one step per repetition and one
  /// more per `period` repetitions, so with `period` inputs in turn every
  /// input meets every CPU.
  void pin(int i, int period) {
    if (cpus_.size() < 2) return;
    const auto k = static_cast<std::size_t>(i + i / period);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// ------------------------------------------------------------------- pins

/// Pinned deterministic fields per (workload, seed), one whitespace-separated
/// row per line: `<workload> <seed> <field>=<value> ...`; '#' starts a
/// comment.
class Pins {
 public:
  explicit Pins(const std::string& path) {
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      std::string workload, token;
      std::uint64_t seed = 0;
      if (!(row >> workload >> seed))
        throw std::runtime_error("malformed pin row: " + line);
      Fields fields;
      while (row >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
          throw std::runtime_error("malformed pin field: " + token);
        fields[token.substr(0, eq)] = std::stoull(token.substr(eq + 1));
      }
      rows_[{workload, seed}] = std::move(fields);
    }
  }

  const Fields* find(const std::string& workload, std::uint64_t seed) const {
    const auto it = rows_.find({workload, seed});
    return it == rows_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::pair<std::string, std::uint64_t>, Fields> rows_;
};

// A repetition (or campaign execution) fails when it adds a problem.

void sameFields(Report& report, const std::string& what, const Fields& want,
                const Fields& got) {
  if (want != got)
    report.problems.push_back(what + ": expected {" + describe(want) +
                              "} got {" + describe(got) + "}");
}

void invariant(Report& report, bool ok, const std::string& what) {
  if (!ok) report.problems.push_back("invariant failed: " + what);
}

// --------------------------------------------------------- spec loading

std::string specPath(const Options& opts) {
  return opts.specDir + "/" + opts.workload + ".spec";
}

campaign::CampaignSpec loadWorkload(const Options& opts) {
  campaign::CampaignSpec spec = campaign::loadSpec(specPath(opts));
  if (opts.seed) spec.seedBase = *opts.seed;
  return spec;
}

// ------------------------------------------------- single-scenario runs

/// One build + run of a scenario.
struct Rep {
  double setupS = 0.0;
  double runS = 0.0;
  std::vector<double> roundS;
  Fields fields;
  core::RunResult result;
  std::uint64_t mediumFrames = 0;
  std::uint64_t arqRetx = 0;
  std::size_t nodes = 0;
  // Traced repetitions only.
  std::uint64_t setupAllocs = 0;
  std::uint64_t setupBytes = 0;
  double connectivityS = 0.0;
};

Fields fieldsOf(const core::RunResult& r) {
  return {{"frames", r.controlFrames + r.dataFrames},
          {"generated", r.generated},
          {"delivered", r.delivered},
          {"control_bytes", r.controlBytes},
          {"data_bytes", r.dataBytes},
          {"collisions", r.collisions},
          {"events", r.eventsProcessed}};
}

/// Times net::isConnected and net::sensorsConnected on the built layout.
double timeConnectivity(Report& report, const core::Scenario& scenario,
                        SpanLog& spans, std::uint64_t parent) {
  net::Deployment layout;
  const net::SensorNetwork& network = *scenario.network;
  for (net::NodeId id : network.sensorIds())
    layout.sensors.push_back(network.node(id).position());
  for (net::NodeId id : network.gatewayIds())
    layout.gateways.push_back(network.node(id).position());
  const double range = scenario.config.radioRange;

  const auto t0 = Clock::now();
  ScopedSpan all(&spans, "net.connectivity", parent);
  bool reach = false;
  bool sensors = false;
  {
    ScopedSpan span(&spans, "net.is_connected", all.id());
    reach = net::isConnected(layout, range);
  }
  {
    ScopedSpan span(&spans, "net.sensors_connected", all.id());
    sensors = net::sensorsConnected(layout.sensors, range);
  }
  invariant(report, reach, "built layout reaches a gateway from every sensor");
  invariant(report, sensors, "built sensor graph is connected");
  return secondsBetween(t0, Clock::now());
}

void addProfilerLedgers(SpanLog& spans, std::uint64_t parent,
                        const core::RunObservations& o) {
  const struct {
    const char* name;
    obs::Phase phase;
  } phases[] = {{"sim.dispatch", obs::Phase::kEventDispatch},
                {"net.mac", obs::Phase::kMacContention},
                {"routing.route_maintenance", obs::Phase::kRouteMaintenance},
                {"crypto", obs::Phase::kCrypto}};
  for (const auto& p : phases) {
    const obs::PhaseTotals& t = o.profiler.totals(p.phase);
    spans.ledger(p.name, parent,
                 {{"calls", static_cast<double>(t.calls)},
                  {"inclusive_s", t.inclusiveSeconds},
                  {"self_s", t.selfSeconds}});
  }
  Attrs counters;
  for (std::size_t c = 0; c < obs::kPerfCounterCount; ++c) {
    const auto counter = static_cast<obs::PerfCounter>(c);
    counters.emplace_back(obs::metricName(counter),
                          static_cast<double>(o.perf.value(counter)));
  }
  spans.ledger("obs.perf", parent, std::move(counters));
  spans.ledger("obs.alloc", parent,
               {{"count", static_cast<double>(o.telemetry.allocCount)},
                {"bytes", static_cast<double>(o.telemetry.allocBytes)}});
}

/// Builds and runs one scenario. With `spans` set the repetition is traced:
/// the config arms the profiler and work-counter ledgers, set-up allocations
/// are counted, connectivity is timed, and spans are recorded.
Rep runRep(Report& report, core::ScenarioConfig cfg, SpanLog* spans,
           std::uint64_t parent) {
  Rep rep;
  if (spans) {
    cfg.obs.profile = true;
    cfg.obs.perf = true;
  }
  const ScopedSpan repSpan(spans, "core.repetition", parent);

  const auto t0 = Clock::now();
  std::unique_ptr<core::Scenario> scenario;
  {
    const ScopedSpan span(spans, "core.build_scenario", repSpan.id());
    std::optional<obs::AllocationScope> allocs;
    if (spans) allocs.emplace();
    scenario = core::buildScenario(cfg);
    if (allocs) {
      rep.setupAllocs = allocs->count();
      rep.setupBytes = allocs->bytes();
    }
  }
  rep.setupS = secondsBetween(t0, Clock::now());
  rep.nodes = scenario->network->size();
  if (spans)
    rep.connectivityS = timeConnectivity(report, *scenario, *spans,
                                         repSpan.id());

  core::Experiment experiment(*scenario);
  std::vector<Clock::time_point> marks;
  experiment.addRoundObserver(
      "perfbench-round-clock",
      [&marks](std::uint32_t) { marks.push_back(Clock::now()); });
  const std::uint64_t runSpan =
      spans ? spans->begin("core.experiment_run", repSpan.id())
            : SpanLog::kNoParent;
  const auto r0 = Clock::now();
  rep.result = experiment.run();
  const auto r1 = Clock::now();
  rep.runS = secondsBetween(r0, r1);
  Clock::time_point prev = r0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    rep.roundS.push_back(secondsBetween(prev, marks[i]));
    if (spans)
      spans->add("core.round", runSpan, prev, marks[i],
                 {{"round", static_cast<double>(i)}});
    prev = marks[i];
  }
  if (spans) {
    spans->end(runSpan, {{"rounds", static_cast<double>(marks.size())}});
    if (rep.result.observations)
      addProfilerLedgers(*spans, runSpan, *rep.result.observations);
  }

  rep.fields = fieldsOf(rep.result);
  rep.mediumFrames = scenario->network->medium().framesTransmitted();
  rep.arqRetx = scenario->network->medium().arqRetransmissions();
  return rep;
}

/// Output checks that hold on every seed.
void repInvariants(Report& report, const Rep& rep,
                   const core::ScenarioConfig& cfg) {
  const Fields& f = rep.fields;
  invariant(report, rep.result.roundsCompleted == cfg.rounds,
            "every round completed");
  invariant(report, f.at("delivered") > 0, "readings delivered");
  invariant(report, f.at("delivered") <= f.at("generated"),
            "delivered <= generated");
  invariant(report, f.at("frames") == rep.mediumFrames,
            "traffic-stats frames == medium frames transmitted");
  if (const auto& o = rep.result.observations; o && o->perfCounted)
    invariant(report,
              o->perf.value(obs::PerfCounter::kFramesTransmitted) ==
                  rep.mediumFrames,
              "perf ledger frames == medium frames transmitted");
}

Report runScenarioWorkload(const Options& opts, const Pins& pins,
                           SpanLog& spans) {
  Report report;
  report.workload = opts.workload;
  const campaign::CampaignSpec spec = loadWorkload(opts);
  report.seed = spec.seedBase;

  // Repetition i runs input i % kInputsPerRun. Each input is checked
  // against its pinned row, or else against its own first repetition.
  struct Input {
    std::uint64_t seed = 0;
    core::ScenarioConfig cfg;
    const Fields* pinned = nullptr;
    std::optional<Fields> reference;
  };
  std::vector<Input> inputs(kInputsPerRun);
  for (std::uint64_t j = 0; j < kInputsPerRun; ++j) {
    campaign::CampaignSpec derived = spec;
    derived.seedBase = spec.seedBase + j * kSeedStride;
    const std::vector<campaign::PlannedRun> plan = campaign::expand(derived);
    if (plan.size() != 1)
      throw std::runtime_error(opts.workload + " must expand to one run");
    Input& in = inputs[j];
    in.seed = derived.seedBase;
    in.cfg = plan.front().config;
    in.pinned = pins.find(opts.workload, in.seed);
    if (in.pinned) in.reference = *in.pinned;
  }
  auto inputOf = [&inputs](int i) -> Input& {
    return inputs[static_cast<std::size_t>(i) % inputs.size()];
  };

  // `seen` is the problem count before the repetition ran.
  auto check = [&](const Rep& rep, Input& in, const std::string& label,
                   std::size_t seen) {
    ++report.attempted;
    repInvariants(report, rep, in.cfg);
    if (!in.reference) in.reference = rep.fields;
    sameFields(report, label + " (seed " + std::to_string(in.seed) + ")",
               *in.reference, rep.fields);
    if (report.problems.size() > seen) ++report.failed;
  };

  // Untraced repetitions: the end-to-end metrics. Every input runs at least
  // twice, so an unpinned input is still checked against a second result.
  std::vector<Rep> plain;
  const double plainBudget = opts.trace ? 0.4 * opts.seconds : opts.seconds;
  CpuRotation cpus;
  const int period = static_cast<int>(kInputsPerRun);
  repeatFor(plainBudget, 2 * period, [&](int i) {
    const std::size_t seen = report.problems.size();
    cpus.pin(i, period);
    Input& in = inputOf(i);
    Rep rep = runRep(report, in.cfg, nullptr, SpanLog::kNoParent);
    if (i == 0 && opts.inject == "off-by-one") rep.fields["delivered"] += 1;
    check(rep, in, "untraced repetition " + std::to_string(i), seen);
    plain.push_back(std::move(rep));
  });
  const double peakRssMb =
      static_cast<double>(obs::currentPeakRssKb()) / 1024.0;
  for (std::size_t j = 0; j < inputs.size(); ++j)
    if (!inputs[j].pinned)
      std::printf("pin-candidate: %s %llu %s\n", opts.workload.c_str(),
                  static_cast<unsigned long long>(inputs[j].seed),
                  describe(plain[j].fields).c_str());

  std::vector<double> setup, run, total, framesRate, readingsRate, roundP50,
      roundP75;
  std::size_t rounds = 0;
  double extraSetupS = 0.0;
  const double setupCostS = plain.front().setupS;
  for (int i = 0; plain.size() + setup.size() < kMinSetupSamples &&
                  extraSetupS + setupCostS <= 0.05 * plainBudget;
       ++i) {
    const auto t0 = Clock::now();
    const auto scenario = core::buildScenario(inputOf(i).cfg);
    setup.push_back(secondsBetween(t0, Clock::now()));
    extraSetupS += setup.back();
  }
  for (const Rep& r : plain) {
    setup.push_back(r.setupS);
    run.push_back(r.runS);
    total.push_back(r.setupS + r.runS);
    framesRate.push_back(
        ratio(static_cast<double>(r.fields.at("frames")), r.runS));
    readingsRate.push_back(
        ratio(static_cast<double>(r.fields.at("delivered")), r.runS));
    std::vector<double> roundMs;
    for (double s : r.roundS) roundMs.push_back(s * 1e3);
    roundP50.push_back(quantile(roundMs, 0.50));
    roundP75.push_back(quantile(roundMs, 0.75));
    rounds += roundMs.size();
  }
  const double runS = median(run);
  report.endToEnd = {
      {"setup_s", median(setup), "s"},
      {"run_s", runS, "s"},
      {"frames_per_s", median(framesRate), "1/s"},
      {"readings_per_s", median(readingsRate), "1/s"},
      {"runs_per_s", ratio(1.0, median(total)), "1/s"},
      {"round_ms_p50", median(roundP50), "ms"},
      {"round_ms_p75", median(roundP75), "ms"},
      {"peak_rss_mb", peakRssMb, "MB"},
  };
  std::printf("samples: %zu repetitions, %zu set-ups, %zu rounds; run_s",
              plain.size(), setup.size(), rounds);
  for (double s : run) std::printf(" %s", formatNumber(s).c_str());
  std::printf("\n");
  if (!opts.trace) return report;

  // Traced repetitions: the per-layer metrics.
  std::vector<Rep> traced;
  const std::uint64_t root = spans.begin("bench.traced", SpanLog::kNoParent);
  repeatFor(opts.seconds - plainBudget, 2, [&](int i) {
    const std::size_t seen = report.problems.size();
    cpus.pin(i, period);
    Input& in = inputOf(i);
    Rep rep = runRep(report, in.cfg, &spans, root);
    check(rep, in, "traced repetition " + std::to_string(i), seen);
    traced.push_back(std::move(rep));
  });
  spans.end(root);

  std::vector<double> tRun, round0, steady, boundary, dispatchSelf, macSelf,
      routingSelf, cryptoSelf, connectivity;
  for (const Rep& r : traced) {
    const core::RunObservations& o = *r.result.observations;
    tRun.push_back(r.runS);
    if (!r.roundS.empty()) round0.push_back(r.roundS.front());
    for (std::size_t i = 1; i < r.roundS.size(); ++i)
      steady.push_back(r.roundS[i]);
    const auto& dispatch = o.profiler.totals(obs::Phase::kEventDispatch);
    boundary.push_back(r.runS - dispatch.inclusiveSeconds);
    dispatchSelf.push_back(dispatch.selfSeconds);
    macSelf.push_back(o.profiler.totals(obs::Phase::kMacContention).selfSeconds);
    routingSelf.push_back(
        o.profiler.totals(obs::Phase::kRouteMaintenance).selfSeconds);
    cryptoSelf.push_back(o.profiler.totals(obs::Phase::kCrypto).selfSeconds);
    connectivity.push_back(r.connectivityS);
  }
  const Rep& t = traced.front();
  const core::RunObservations& o = *t.result.observations;
  auto perf = [&o](obs::PerfCounter c) {
    return static_cast<double>(o.perf.value(c));
  };
  const double frames = static_cast<double>(t.fields.at("frames"));
  const double delivered = static_cast<double>(t.fields.at("delivered"));
  const double tracedRunS = median(tRun);
  const core::FaultSummary& faults = t.result.faults;
  report.perLayer = {
      {"core.round0_s", median(round0), "s"},
      {"core.steady_round_s", median(steady), "s"},
      {"core.round_boundary_s", median(boundary), "s"},
      {"net.connectivity_s", median(connectivity), "s"},
      {"net.setup_allocs", static_cast<double>(t.setupAllocs), "count"},
      {"net.setup_bytes_per_node",
       ratio(static_cast<double>(t.setupBytes), static_cast<double>(t.nodes)),
       "B"},
      {"sim.events", static_cast<double>(t.fields.at("events")), "count"},
      {"sim.events_per_frame",
       ratio(static_cast<double>(t.fields.at("events")), frames), "ratio"},
      {"sim.dispatch_self_s", median(dispatchSelf), "s"},
      {"net.mac.self_s", median(macSelf), "s"},
      {"net.mac.backoffs_per_frame",
       ratio(perf(obs::PerfCounter::kMacBackoffs), frames), "ratio"},
      {"net.medium.frames", static_cast<double>(t.mediumFrames), "count"},
      {"net.medium.rx_per_frame",
       ratio(perf(obs::PerfCounter::kFramesReceived), frames), "ratio"},
      {"net.medium.candidates_per_frame",
       ratio(perf(obs::PerfCounter::kPairsExamined), frames), "ratio"},
      {"net.medium.collisions", static_cast<double>(t.fields.at("collisions")),
       "count"},
      {"net.medium.arq_retx", static_cast<double>(t.arqRetx), "count"},
      {"alloc.per_frame",
       ratio(static_cast<double>(o.telemetry.allocCount), frames), "ratio"},
      {"alloc.bytes_per_frame",
       ratio(static_cast<double>(o.telemetry.allocBytes), frames), "B"},
      {"routing.self_s", median(routingSelf), "s"},
      {"routing.route_mutations", perf(obs::PerfCounter::kRouteMutations),
       "count"},
      {"routing.node_steps", perf(obs::PerfCounter::kNodeSteps), "count"},
      {"routing.control_bytes_per_reading",
       ratio(static_cast<double>(t.fields.at("control_bytes")), delivered),
       "B"},
      {"crypto.calls",
       static_cast<double>(o.profiler.totals(obs::Phase::kCrypto).calls),
       "count"},
      {"crypto.self_s", median(cryptoSelf), "s"},
      {"crypto.share", ratio(median(cryptoSelf), tracedRunS), "ratio"},
      {"fault.crashes",
       static_cast<double>(faults.sensorCrashes + faults.gatewayFailures),
       "count"},
      {"fault.recoveries",
       static_cast<double>(faults.sensorRecoveries + faults.gatewayRecoveries),
       "count"},
      {"fault.link_drops", static_cast<double>(faults.linkFaultDrops),
       "count"},
      {"campaign.run_wall_sum_s", 0.0, "s"},
      {"campaign.overhead_s", 0.0, "s"},
      {"campaign.record_codec_s", 0.0, "s"},
      {"campaign.render_s", 0.0, "s"},
      {"campaign.journal_bytes", 0.0, "B"},
      {"campaign.stolen", 0.0, "count"},
      {"obs.trace_overhead", ratio(tracedRunS, runS) - 1.0, "ratio"},
  };
  spans.ledger("obs.trace_overhead", root,
               {{"untraced_run_s", runS}, {"traced_run_s", tracedRunS}});
  return report;
}

// ------------------------------------------------------------ campaign

/// One runCampaign invocation and what the benchmark read back from it.
struct Execution {
  double runS = 0.0;
  campaign::CampaignOutcome outcome;
  Fields fields;
  std::uint64_t rounds = 0;
  std::uint64_t journalBytes = 0;
  double codecS = 0.0;
  double renderS = 0.0;
  double wallSumS = 0.0;
  std::uint64_t nodeSteps = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t linkDrops = 0;
};

std::uint64_t counterOf(const obs::MetricsRegistry& registry,
                        const std::string& name, const std::string& protocol) {
  const obs::Counter* c = registry.findCounter(name, {{"protocol", protocol}});
  return c ? c->value() : 0;
}

Execution execute(Report& report, const Options& opts,
                  campaign::CampaignSpec spec, int index, SpanLog* spans,
                  std::uint64_t parent) {
  Execution ex;
  // The traced campaign arms the work-counter ledger in every worker, so
  // records carry per-run wall time (and the artifact gains perf fields).
  if (spans) spec.base.emplace_back("perf", "on");
  const std::string stem = opts.workDir + "/" + opts.workload + "-s" +
                           std::to_string(spec.seedBase) + "-p" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(index) + (spans ? "-traced" : "");
  campaign::CampaignOptions copts;
  copts.journalPath = stem + ".journal";
  copts.outPath = stem + ".artifact";
  copts.workers = kCampaignWorkers;
  copts.quiet = true;
  std::filesystem::remove(copts.journalPath);
  std::filesystem::remove(copts.outPath);
  if (index == 0 && !spans && opts.inject == "stale-journal") {
    // A journal left over from an interrupted campaign: resuming from it
    // skips one run, which the check must refuse.
    campaign::CampaignOptions partial = copts;
    partial.stopAfter = 1;
    partial.outPath.clear();
    campaign::runCampaign(spec, partial);
    copts.resume = true;
  }

  {
    const ScopedSpan span(spans, "campaign.run", parent);
    const auto t0 = Clock::now();
    ex.outcome = campaign::runCampaign(spec, copts);
    ex.runS = secondsBetween(t0, Clock::now());
  }

  // Journal read-back: every line must decode and re-encode to itself.
  std::map<std::string, campaign::RunRecord> records;
  const std::string journal = readFile(copts.journalPath);
  ex.journalBytes = journal.size();
  {
    const ScopedSpan span(spans, "campaign.record_codec", parent);
    const auto t0 = Clock::now();
    std::istringstream lines(journal);
    std::string line;
    std::getline(lines, line);  // header
    while (std::getline(lines, line)) {
      campaign::RunRecord record = campaign::decodeRecord(line);
      invariant(report, campaign::encodeRecord(record) == line,
                "journal record round-trips through the codec");
      records[record.id] = std::move(record);
    }
    ex.codecS = secondsBetween(t0, Clock::now());
  }

  const std::vector<campaign::PlannedRun> plan = campaign::expand(spec);
  const std::string artifact = readFile(copts.outPath);
  {
    const ScopedSpan span(spans, "campaign.render", parent);
    const auto t0 = Clock::now();
    const std::string rendered =
        campaign::renderArtifact(spec, plan, records);
    ex.renderS = secondsBetween(t0, Clock::now());
    invariant(report, rendered == artifact,
              "artifact re-renders identically from the journal");
  }
  std::filesystem::remove(copts.journalPath);
  std::filesystem::remove(copts.outPath);

  Fields& f = ex.fields;
  f["runs"] = records.size();
  for (const char* k : {"generated", "delivered", "control_bytes",
                        "data_bytes", "collisions", "frames", "events"})
    f[k] = 0;
  for (const campaign::PlannedRun& run : plan) {
    const auto it = records.find(run.id);
    if (it == records.end()) continue;
    const campaign::RunRecord& r = it->second;
    f["generated"] += r.generated;
    f["delivered"] += r.delivered;
    f["control_bytes"] += r.controlBytes;
    f["data_bytes"] += r.dataBytes;
    f["collisions"] += r.collisions;
    ex.rounds += r.roundsCompleted;
    ex.wallSumS += r.perfWallSeconds;
    ex.nodeSteps += r.perfNodeSteps;
    const obs::MetricsRegistry m =
        obs::MetricsRegistry::fromWire(r.metricsWire);
    const std::string p = core::toString(run.config.protocol);
    f["frames"] += counterOf(m, "wmsn_control_frames_total", p) +
                   counterOf(m, "wmsn_data_frames_total", p);
    f["events"] += counterOf(m, "wmsn_events_processed_total", p);
    ex.crashes += counterOf(m, "wmsn_fault_sensor_crashes_total", p) +
                  counterOf(m, "wmsn_fault_gateway_failures_total", p);
    ex.recoveries += counterOf(m, "wmsn_fault_sensor_recoveries_total", p) +
                     counterOf(m, "wmsn_fault_gateway_recoveries_total", p);
    ex.linkDrops += counterOf(m, "wmsn_fault_link_drops_total", p);
  }
  // The traced artifact carries wall-clock perf fields; only the untraced
  // one is hashed.
  if (!spans) f["artifact_fnv"] = fnv1a(artifact);
  return ex;
}

Report runCampaignWorkload(const Options& opts, const Pins& pins,
                           SpanLog& spans) {
  Report report;
  report.workload = opts.workload;

  // Set-up: spec load + expansion, repeated for a stable median.
  std::vector<double> setup;
  campaign::CampaignSpec spec;
  std::size_t planned = 0;
  {
    const ScopedSpan setupSpan(opts.trace ? &spans : nullptr,
                               "campaign.setup", SpanLog::kNoParent);
    for (int i = 0; i < kCampaignSetupIterations; ++i) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(opts.trace ? &spans : nullptr,
                              "campaign.load_spec", setupSpan.id());
        spec = loadWorkload(opts);
      }
      {
        const ScopedSpan span(opts.trace ? &spans : nullptr,
                              "campaign.expand", setupSpan.id());
        planned = campaign::expand(spec).size();
      }
      setup.push_back(secondsBetween(t0, Clock::now()));
    }
  }
  report.seed = spec.seedBase;

  const Fields* pinned = pins.find(opts.workload, report.seed);
  std::optional<Fields> reference;
  if (pinned) reference = *pinned;

  // `seen` is the problem count before the execution ran. Failed and
  // resumed runs count one each; any other problem fails one run.
  auto check = [&](const Execution& ex, const std::string& label, bool traced,
                   std::size_t seen) {
    report.attempted += ex.outcome.runsTotal;
    if (ex.outcome.runsFromJournal > 0)
      report.problems.push_back(
          label + ": " + std::to_string(ex.outcome.runsFromJournal) +
          " run(s) skipped as resumed from a stale journal");
    if (ex.outcome.runsFailed > 0)
      report.problems.push_back(label + ": " +
                                std::to_string(ex.outcome.runsFailed) +
                                " failed run(s)");
    invariant(report, ex.outcome.runsTotal == planned,
              "campaign ran its whole plan");
    invariant(report, ex.fields.at("runs") == planned,
              "one journal record per planned run");
    if (!reference) reference = ex.fields;
    Fields want = *reference;
    if (traced) want.erase("artifact_fnv");
    sameFields(report, label, want, ex.fields);
    if (report.problems.size() > seen)
      report.failed += std::max<std::uint64_t>(
          1, ex.outcome.runsFailed + ex.outcome.runsFromJournal);
  };

  std::vector<Execution> plain;
  const double plainBudget = opts.trace ? 0.4 * opts.seconds : opts.seconds;
  repeatFor(plainBudget, opts.trace ? 1 : 3, [&](int i) {
    const std::size_t seen = report.problems.size();
    Execution ex = execute(report, opts, spec, i, nullptr, SpanLog::kNoParent);
    if (i == 0 && opts.inject == "off-by-one") ex.fields["delivered"] += 1;
    check(ex, "untraced campaign " + std::to_string(i), false, seen);
    plain.push_back(std::move(ex));
  });
  if (!pinned)
    std::printf("pin-candidate: %s %llu %s\n", opts.workload.c_str(),
                static_cast<unsigned long long>(report.seed),
                describe(plain.front().fields).c_str());

  std::vector<double> run, roundMs;
  for (const Execution& ex : plain) {
    run.push_back(ex.runS);
    roundMs.push_back(ratio(ex.runS * kCampaignWorkers * 1e3,
                            static_cast<double>(ex.rounds)));
  }
  const Fields& f = plain.front().fields;
  const double runS = median(run);
  report.endToEnd = {
      {"setup_s", median(setup), "s"},
      {"run_s", runS, "s"},
      {"frames_per_s", ratio(static_cast<double>(f.at("frames")), runS),
       "1/s"},
      {"readings_per_s", ratio(static_cast<double>(f.at("delivered")), runS),
       "1/s"},
      {"runs_per_s", ratio(static_cast<double>(planned), runS), "1/s"},
      {"round_ms_p50", quantile(roundMs, 0.50), "ms"},
      {"round_ms_p75", quantile(roundMs, 0.75), "ms"},
      {"peak_rss_mb", childPeakRssMb(), "MB"},
  };
  std::printf("samples: %zu campaign executions of %zu runs; run_s",
              plain.size(), planned);
  for (double s : run) std::printf(" %s", formatNumber(s).c_str());
  std::printf("\n");
  if (!opts.trace) return report;

  std::vector<Execution> traced;
  const std::uint64_t root = spans.begin("bench.traced", SpanLog::kNoParent);
  repeatFor(opts.seconds - plainBudget, 1, [&](int i) {
    const std::size_t seen = report.problems.size();
    Execution ex = execute(report, opts, spec, i, &spans, root);
    check(ex, "traced campaign " + std::to_string(i), true, seen);
    traced.push_back(std::move(ex));
  });
  spans.end(root);

  std::vector<double> tRun, wallSum, overhead, codec, render;
  for (const Execution& ex : traced) {
    tRun.push_back(ex.runS);
    wallSum.push_back(ex.wallSumS);
    overhead.push_back(ex.runS - ex.wallSumS / kCampaignWorkers);
    codec.push_back(ex.codecS);
    render.push_back(ex.renderS);
  }
  const Execution& t = traced.front();
  const double frames = static_cast<double>(t.fields.at("frames"));
  const double tracedRunS = median(tRun);
  report.perLayer = {
      {"core.round0_s", 0.0, "s"},
      {"core.steady_round_s", 0.0, "s"},
      {"core.round_boundary_s", 0.0, "s"},
      {"net.connectivity_s", 0.0, "s"},
      {"net.setup_allocs", 0.0, "count"},
      {"net.setup_bytes_per_node", 0.0, "B"},
      {"sim.events", static_cast<double>(t.fields.at("events")), "count"},
      {"sim.events_per_frame",
       ratio(static_cast<double>(t.fields.at("events")), frames), "ratio"},
      {"sim.dispatch_self_s", 0.0, "s"},
      {"net.mac.self_s", 0.0, "s"},
      {"net.mac.backoffs_per_frame", 0.0, "ratio"},
      {"net.medium.frames", frames, "count"},
      {"net.medium.rx_per_frame", 0.0, "ratio"},
      {"net.medium.candidates_per_frame", 0.0, "ratio"},
      {"net.medium.collisions", static_cast<double>(t.fields.at("collisions")),
       "count"},
      {"net.medium.arq_retx", 0.0, "count"},
      {"alloc.per_frame", 0.0, "ratio"},
      {"alloc.bytes_per_frame", 0.0, "B"},
      {"routing.self_s", 0.0, "s"},
      {"routing.route_mutations", 0.0, "count"},
      {"routing.node_steps", static_cast<double>(t.nodeSteps), "count"},
      {"routing.control_bytes_per_reading",
       ratio(static_cast<double>(t.fields.at("control_bytes")),
             static_cast<double>(t.fields.at("delivered"))),
       "B"},
      {"crypto.calls", 0.0, "count"},
      {"crypto.self_s", 0.0, "s"},
      {"crypto.share", 0.0, "ratio"},
      {"fault.crashes", static_cast<double>(t.crashes), "count"},
      {"fault.recoveries", static_cast<double>(t.recoveries), "count"},
      {"fault.link_drops", static_cast<double>(t.linkDrops), "count"},
      {"campaign.run_wall_sum_s", median(wallSum), "s"},
      {"campaign.overhead_s", median(overhead), "s"},
      {"campaign.record_codec_s", median(codec), "s"},
      {"campaign.render_s", median(render), "s"},
      {"campaign.journal_bytes", static_cast<double>(t.journalBytes), "B"},
      {"campaign.stolen", static_cast<double>(t.outcome.pool.stolen),
       "count"},
      {"obs.trace_overhead", ratio(tracedRunS, runS) - 1.0, "ratio"},
  };
  spans.ledger("obs.trace_overhead", root,
               {{"untraced_run_s", runS}, {"traced_run_s", tracedRunS}});
  return report;
}

// ---------------------------------------------------------------- output

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           formatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void printReport(const Report& r, bool trace) {
  for (const std::string& p : r.problems)
    std::printf("MISMATCH %s\n", p.c_str());
  const bool correct = r.failed == 0;
  std::printf("check: %s (%llu of %llu runs failed or mismatched)\n",
              correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  auto line = [&r](const Metric& m) {
    std::printf("%s %-34s %-22s %s\n", r.workload.c_str(), m.name.c_str(),
                formatNumber(m.value).c_str(), m.unit.c_str());
  };
  for (const Metric& m : r.endToEnd) line(m);
  line({"failed_share",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio"});
  for (const Metric& m : r.perLayer) line(m);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      metricsJson(trace ? r.perLayer : r.endToEnd).c_str());
  std::fflush(stdout);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--spec-dir") {
      o.specDir = value;
    } else if (arg == "--pins") {
      o.pinsPath = value;
    } else if (arg == "--work-dir") {
      o.workDir = value;
    } else if (arg == "--inject") {
      if (value != "off-by-one" && value != "stale-journal")
        throw std::invalid_argument("--inject takes off-by-one|stale-journal");
      o.inject = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload != "flood_grid" && o.workload != "secmlr_mobile" &&
      o.workload != "campaign_churn")
    throw std::invalid_argument(
        "--workload must be flood_grid, secmlr_mobile or campaign_churn");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parseArgs(argc, argv);
    const Pins pins(opts.pinsPath);
    std::filesystem::create_directories(opts.workDir);
    std::printf("perfbench %s build=%s seconds=%s trace=%d\n",
                opts.workload.c_str(), PERFBENCH_BUILD_TYPE,
                formatNumber(opts.seconds).c_str(), opts.trace ? 1 : 0);
    SpanLog spans;
    const Report report = opts.workload == "campaign_churn"
                              ? runCampaignWorkload(opts, pins, spans)
                              : runScenarioWorkload(opts, pins, spans);
    if (opts.trace) {
      const std::string path = opts.workDir + "/trace-" + opts.workload +
                               "-s" + std::to_string(report.seed) + ".jsonl";
      spans.writeJsonl(path);
      std::printf("trace: %s\n", path.c_str());
    }
    printReport(report, opts.trace);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmsn_perfbench: %s\n", e.what());
    return 2;
  }
}
