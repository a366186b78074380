#pragma once

// In-memory span recorder for the benchmark's traced run. Spans wrap the
// benchmark's own calls into each simulator layer; ledger records attach the
// in-program profiler and work-counter totals to the span that produced
// them. Nothing is written until the benchmark ends (SpanLog::writeJsonl).

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Shortest round-trip decimal form of a double (JSON number).
std::string formatNumber(double value);

using Attrs = std::vector<std::pair<std::string, double>>;

class SpanLog {
 public:
  static constexpr std::uint64_t kNoParent = 0;

  /// Opens a span starting now; returns its id (ids start at 1).
  std::uint64_t begin(const std::string& name, std::uint64_t parent);
  /// Closes span `id` now.
  void end(std::uint64_t id, Attrs attrs = {});
  /// Records an already-timed span (round observer intervals).
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point stop,
                    Attrs attrs = {});
  /// Attaches a layer ledger (profiler phase, perf counters) to a span.
  void ledger(const std::string& name, std::uint64_t parent, Attrs attrs);

  /// One JSON object per line: spans (with self time = duration minus the
  /// time covered by direct children) first, then ledgers. Times are
  /// seconds since the first span began.
  void writeJsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    Clock::time_point start;
    Clock::time_point stop;
    Attrs attrs;
  };
  struct Ledger {
    std::string name;
    std::uint64_t parent;
    Attrs attrs;
  };
  std::vector<Span> spans_;
  std::vector<Ledger> ledgers_;
};

/// RAII helper: a span over the enclosing scope when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::uint64_t parent)
      : log_(log), id_(log ? log->begin(name, parent) : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

}  // namespace perfbench
