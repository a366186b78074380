#include "sim/simulator.hpp"

#include "obs/profiler.hpp"
#include "util/require.hpp"

namespace wmsn::sim {

EventId Simulator::schedule(Time delay, Action action) {
  WMSN_REQUIRE_MSG(delay.us >= 0, "cannot schedule into the past");
  return queue_.push(now_ + delay, std::move(action));
}

EventId Simulator::scheduleAt(Time when, Action action) {
  WMSN_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
  return queue_.push(when, std::move(action));
}

void Simulator::dispatchOne() {
  EventQueue::Event ev = queue_.pop();
  now_ = ev.time;
  ++eventsProcessed_;
  WMSN_PROFILE_PHASE(kEventDispatch);
  ev.action();
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  stopped_ = false;
  std::uint64_t processed = 0;
  while (!stopped_ && processed < limit && !queue_.empty()) {
    dispatchOne();
    ++processed;
  }
  return processed;
}

std::uint64_t Simulator::runUntil(Time deadline) {
  stopped_ = false;
  std::uint64_t processed = 0;
  while (!stopped_ && !queue_.empty() && queue_.nextTime() <= deadline) {
    dispatchOne();
    ++processed;
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return processed;
}

void Simulator::reset() {
  queue_.clear();
  now_ = Time::zero();
  stopped_ = false;
  eventsProcessed_ = 0;
}

}  // namespace wmsn::sim
