#pragma once

#include <cstdint>
#include <limits>

#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace wmsn::sim {

/// Discrete-event simulator: a clock plus an event queue. Single-threaded by
/// design — parallelism in the benchmark harness comes from running many
/// independent Simulator instances concurrently (one per scenario/seed),
/// which is both faster and deterministic.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `action` to run `delay` after the current time.
  /// Requires delay >= 0.
  EventId schedule(Time delay, Action action);

  /// Schedule `action` at an absolute time >= now().
  EventId scheduleAt(Time when, Action action);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains, `limit` events fire, or stop() is called.
  /// Returns the number of events processed.
  std::uint64_t run(std::uint64_t limit =
                        std::numeric_limits<std::uint64_t>::max());

  /// Run until simulated time reaches `deadline` (events at exactly
  /// `deadline` still fire), the queue drains, or stop() is called.
  /// Afterwards now() == max(now, deadline) if the deadline was reached.
  std::uint64_t runUntil(Time deadline);

  /// Stops the run loop after the current event finishes.
  void stop() { stopped_ = true; }

  bool pendingEvents() const { return !queue_.empty(); }
  std::size_t queueSize() const { return queue_.size(); }
  std::uint64_t eventsProcessed() const { return eventsProcessed_; }

  /// Resets the clock and clears all pending events.
  void reset();

 private:
  void dispatchOne();

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t eventsProcessed_ = 0;
};

}  // namespace wmsn::sim
