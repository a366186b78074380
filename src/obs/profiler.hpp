#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace wmsn::obs {

/// The instrumented phases of a simulation run. Each phase corresponds to a
/// WMSN_PROFILE_PHASE scope placed on a hot path; the profiler reports where
/// simulator wall-time goes as scenarios scale.
enum class Phase : std::uint8_t {
  kEventDispatch,     ///< sim::Simulator event-queue dispatch (everything)
  kMacContention,     ///< CSMA carrier sensing, backoff and queue service
  kCrypto,            ///< HMAC-SHA256, TESLA chain and Speck-CTR work
  kRouteMaintenance,  ///< MLR place-table updates and move announcements
};
inline constexpr std::size_t kPhaseCount = 4;

const char* toString(Phase phase);

/// Wall-clock totals for one phase. `inclusive` counts the whole scope;
/// `self` excludes time spent in nested profiled scopes (crypto runs inside
/// event dispatch, so dispatch self-time is dispatch minus crypto etc.).
struct PhaseTotals {
  std::uint64_t calls = 0;
  double inclusiveSeconds = 0.0;
  double selfSeconds = 0.0;
};

/// Scoped wall-clock profiler with phase accumulators. Cost model: when no
/// profiler is active on the current thread, an instrumented scope is a
/// thread-local load and a branch; when active, two steady_clock reads.
/// Profiling is per-thread (one simulation runs on one thread), so parallel
/// sweeps each activate their own Profiler without contention.
///
/// Wall-clock numbers are inherently non-deterministic — the profiler is a
/// diagnostic, never an input to simulation results.
class Profiler {
 public:
  /// The profiler instrumented scopes on this thread report into (nullptr =
  /// profiling off, scopes are no-ops).
  static Profiler* current();

  /// RAII activation: installs `profiler` as the thread's current profiler
  /// and restores the previous one on destruction.
  class Activation {
   public:
    explicit Activation(Profiler* profiler);
    ~Activation();
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    Profiler* previous_;
  };

  void enter(Phase phase);
  void exit();

  const PhaseTotals& totals(Phase phase) const {
    return totals_[static_cast<std::size_t>(phase)];
  }
  /// Open scopes right now (0 outside instrumented code).
  std::size_t depth() const { return stack_.size(); }

  /// Sums another profiler's totals into this one (multi-seed sweeps).
  void merge(const Profiler& other);

  /// True once any scope has reported in.
  bool any() const;

  /// The end-of-run phase-time table: calls, self/inclusive milliseconds,
  /// and each phase's share of total self time.
  TextTable table() const;

 private:
  struct Frame {
    Phase phase;
    std::chrono::steady_clock::time_point start;
    double childSeconds = 0.0;
  };

  std::array<PhaseTotals, kPhaseCount> totals_{};
  std::vector<Frame> stack_;
};

/// RAII phase scope. Prefer the WMSN_PROFILE_PHASE macro at call sites.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) : profiler_(Profiler::current()) {
    if (profiler_) profiler_->enter(phase);
  }
  ~ScopedPhase() {
    if (profiler_) profiler_->exit();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace wmsn::obs

#define WMSN_PROFILE_CONCAT2(a, b) a##b
#define WMSN_PROFILE_CONCAT(a, b) WMSN_PROFILE_CONCAT2(a, b)
/// Times the rest of the enclosing scope under `phase` (a Phase enumerator
/// name, e.g. WMSN_PROFILE_PHASE(kCrypto)) on the thread's current profiler.
#define WMSN_PROFILE_PHASE(phase)                      \
  ::wmsn::obs::ScopedPhase WMSN_PROFILE_CONCAT(        \
      wmsnProfileScope, __COUNTER__)(::wmsn::obs::Phase::phase)
