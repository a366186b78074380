#include "sim/event_queue.hpp"

#include <utility>

#include "util/require.hpp"

namespace wmsn::sim {

namespace {

EventId makeId(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

}  // namespace

EventId EventQueue::push(Time time, Action action) {
  WMSN_REQUIRE(static_cast<bool>(action));
  std::uint32_t slot = freeHead_;
  if (slot == kNoSlot) {
    WMSN_REQUIRE_MSG(slots_.size() < kNoSlot, "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    freeHead_ = slots_[slot].nextFree;
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  heap_.push(Entry{time, nextSeq_++, slot, s.generation});
  ++liveCount_;
  return makeId(slot, s.generation);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Destroyed on return, after the bookkeeping: a closure's destructor may
  // not observe (or, by pushing, reallocate) a half-released slot.
  const Action doomed = std::move(s.action);
  // Generation 0 is skipped on wrap-around so no id is ever kInvalidEvent.
  if (++s.generation == 0) s.generation = 1;
  s.nextFree = freeHead_;
  freeHead_ = slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.generation != generation || !s.action) return false;
  release(slot);
  --liveCount_;
  return true;
}

void EventQueue::dropStaleFront() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

Time EventQueue::nextTime() {
  WMSN_REQUIRE(!empty());
  dropStaleFront();
  return heap_.top().time;
}

EventQueue::Event EventQueue::pop() {
  WMSN_REQUIRE(!empty());
  dropStaleFront();
  const Entry entry = heap_.top();
  heap_.pop();
  Event ev{entry.time, makeId(entry.slot, entry.generation),
           std::move(slots_[entry.slot].action)};
  release(entry.slot);
  --liveCount_;
  return ev;
}

void EventQueue::clear() {
  heap_ = {};
  // Free occupied slots one by one rather than dropping the slab, so every
  // generation advances and pre-clear ids cannot match post-clear events.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
    if (slots_[slot].action) release(slot);
  liveCount_ = 0;
}

}  // namespace wmsn::sim
