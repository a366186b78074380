#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/table.hpp"

namespace wmsn::obs {

/// The deterministic hot-path work counters. Each enumerator counts one kind
/// of logical work the simulator performs; together they form the per-run
/// PerfStats ledger that documents *how much* the kernel does (as opposed to
/// the Profiler, which documents how long it takes). Every count derives
/// from simulation state only, so two runs of the same scenario produce the
/// same ledger on any machine, at any --threads, under any sanitizer.
enum class PerfCounter : std::uint8_t {
  kNodeSteps,           ///< per-protocol round steps (ProtocolStack::beginRound)
  kFramesOffered,       ///< frames handed to a MAC (SensorNetwork::sendFrom)
  kFramesTransmitted,   ///< frames put on the air by the medium
  kFramesReceived,      ///< frames delivered to a node's receive handler
  kMacBackoffs,         ///< CSMA backoff iterations (channel sensed busy)
  kNeighborScans,       ///< neighborsOf range queries
  kPairsExamined,       ///< adjacency-row entries walked (row plus the
                        ///< gateways tested) by transmissions and
                        ///< neighborsOf — O(k) per walk
  kRngDraws,            ///< hot-path RNG draws (channel, jitter, backoff)
  kRouteMutations,      ///< MLR place-table entry writes
  kObserverDispatches,  ///< ObserverMux handler invocations
  kGridQueries,         ///< adjacency-row walks (one per transmission
                        ///< and per neighborsOf call)
};
inline constexpr std::size_t kPerfCounterCount = 11;

/// Human label, e.g. "frames-transmitted" (table rows).
const char* toString(PerfCounter counter);
/// Metric-name stem, e.g. "frames_transmitted" (wmsn_perf_* metrics, JSON).
const char* metricName(PerfCounter counter);

/// Per-run ledger of deterministic work counters. Mirrors the Profiler's
/// activation model: a run installs its PerfStats as the thread's current
/// ledger for the duration of the run, and every WMSN_PERF site reports into
/// it. When no ledger is active an instrumented site costs a thread-local
/// load and a branch — the counters-off run is byte- and work-identical to a
/// build without the subsystem.
class PerfStats {
 public:
  /// The ledger WMSN_PERF sites on this thread report into (nullptr =
  /// counting off, sites are no-ops).
  static PerfStats* current();

  /// RAII activation: installs `stats` as the thread's current ledger and
  /// restores the previous one on destruction.
  class Activation {
   public:
    explicit Activation(PerfStats* stats);
    ~Activation();
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    PerfStats* previous_;
  };

  void add(PerfCounter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)] += n;
  }

  std::uint64_t value(PerfCounter counter) const {
    return counters_[static_cast<std::size_t>(counter)];
  }

  /// Sums another ledger into this one. Multi-seed sweeps merge in seed
  /// order; sums are order-independent, so the merged ledger is invariant
  /// across --threads.
  void merge(const PerfStats& other);

  /// True once any counter is non-zero.
  bool any() const;

  /// All counters as rows sorted by metric name (stable, deterministic).
  TextTable table() const;

  /// Deterministic JSON object: {"node_steps": N, ...}, keys sorted by
  /// metric name. Contains only the deterministic counters — resource
  /// telemetry serialises separately (ResourceTelemetry::json).
  std::string json() const;

 private:
  std::array<std::uint64_t, kPerfCounterCount> counters_{};
};

/// Non-deterministic resource telemetry, kept strictly separate from the
/// counter ledger: wall-clock, peak RSS and allocation pressure vary with
/// machine and scheduling, so they never enter a deterministic output
/// (metrics registry, campaign metrics merge, stdout tables). `rounds` and
/// `frames` are deterministic numerators copied in so the derived
/// throughput rates survive multi-seed merging.
struct ResourceTelemetry {
  bool captured = false;
  std::uint64_t peakRssKb = 0;    ///< getrusage ru_maxrss, whole process
  std::uint64_t allocCount = 0;   ///< operator-new calls during the run
  std::uint64_t allocBytes = 0;   ///< bytes requested from operator new
  double wallSeconds = 0.0;       ///< wall time of the round loop
  std::uint64_t rounds = 0;       ///< rounds completed (deterministic)
  std::uint64_t frames = 0;       ///< frames transmitted (deterministic)

  double roundsPerSec() const {
    return wallSeconds > 0.0 ? static_cast<double>(rounds) / wallSeconds : 0.0;
  }
  double framesPerSec() const {
    return wallSeconds > 0.0 ? static_cast<double>(frames) / wallSeconds : 0.0;
  }

  /// Multi-seed accumulation: sums work and wall time (rates re-derive from
  /// the sums), takes the max RSS.
  void merge(const ResourceTelemetry& other);

  /// JSON object with the raw fields plus the derived rates.
  std::string json() const;
};

/// Peak resident set size of this process in KiB (getrusage). 0 when the
/// platform cannot report it.
std::uint64_t currentPeakRssKb();

/// Counts heap allocations made on this thread while the scope is alive.
/// The global operator new/delete replacements in perf_stats.cpp check a
/// thread-local slot: unarmed threads pay one load per allocation, armed
/// threads two increments. Scopes nest; each sees its own window.
class AllocationScope {
 public:
  AllocationScope();
  ~AllocationScope();
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  std::uint64_t count() const { return count_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Called by the allocator hook.
  void note(std::uint64_t bytes) {
    ++count_;
    bytes_ += bytes;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;
  AllocationScope* previous_;
};

}  // namespace wmsn::obs

/// Counts `n` (default 1) into the thread's current PerfStats ledger, e.g.
/// WMSN_PERF(kFramesOffered) or WMSN_PERF(kPairsExamined, nodeCount). The
/// null guard is the whole point: with counting off this is a thread-local
/// load and a branch, and every counting site outside src/obs/ must ride it
/// (scripts/wmsn_analyze.py rule R6-macro-discipline).
#define WMSN_PERF(counter, ...)                                       \
  do {                                                                \
    ::wmsn::obs::PerfStats* wmsnPerfStats =                           \
        ::wmsn::obs::PerfStats::current();                            \
    if (wmsnPerfStats != nullptr)                                     \
      wmsnPerfStats->add(                                             \
          ::wmsn::obs::PerfCounter::counter __VA_OPT__(, ) __VA_ARGS__); \
  } while (false)
