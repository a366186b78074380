#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/require.hpp"

namespace wmsn::sim {

namespace {

EventId makeId(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

// Generation 0 is skipped on wrap-around so no id is ever kInvalidEvent.
void retireGeneration(std::uint32_t& generation) {
  if (++generation == 0) generation = 1;
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
    freeHead_ = slots_[slot].next;
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.next = kNoSlot;
  const std::uint64_t seq = nextSeq_++;
  if (tail_ != kNoSlot && time == tailTime_) {
    // Joins the previous push's run: same time, the very next seq.
    slots_[tail_].next = slot;
  } else {
    heap_.push_back(Entry{time, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    tailTime_ = time;
  }
  tail_ = slot;
  ++liveCount_;
  return makeId(slot, s.generation);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.generation != generation || !s.action) return false;
  // Destroyed on return, after the bookkeeping: a closure's destructor may
  // not observe (or, by pushing, reallocate) a half-cancelled slot. The slot
  // stays in its run; advanceTop() frees it when the run reaches it.
  const Action doomed = std::move(s.action);
  retireGeneration(s.generation);
  --liveCount_;
  return true;
}

void EventQueue::advanceTop() {
  Entry& top = heap_.front();
  Slot& head = slots_[top.slot];
  const std::uint32_t next = head.next;
  head.next = freeHead_;
  freeHead_ = top.slot;
  if (next != kNoSlot) {
    // The run's seqs are consecutive at one time and every other entry
    // sorts after the old head, so (time, seq + 1) is still the minimum.
    top.slot = next;
    ++top.seq;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  tail_ = kNoSlot;
}

void EventQueue::dropCancelledFront() {
  while (!slots_[heap_.front().slot].action) advanceTop();
}

Time EventQueue::nextTime() {
  WMSN_REQUIRE(!empty());
  dropCancelledFront();
  return heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  WMSN_REQUIRE(!empty());
  dropCancelledFront();
  const Entry& top = heap_.front();
  Slot& head = slots_[top.slot];
  Event ev{top.time, makeId(top.slot, head.generation), std::move(head.action)};
  retireGeneration(head.generation);
  advanceTop();
  --liveCount_;
  return ev;
}

void EventQueue::clear() {
  heap_.clear();
  tail_ = kNoSlot;
  // Rebuild the free list over every slot rather than dropping the slab, so
  // every pending event's generation advances and pre-clear ids cannot match
  // post-clear events.
  freeHead_ = kNoSlot;
  for (std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
       slot-- > 0;) {
    Slot& s = slots_[slot];
    const Action doomed = std::move(s.action);
    if (doomed) retireGeneration(s.generation);
    s.next = freeHead_;
    freeHead_ = slot;
  }
  liveCount_ = 0;
}

}  // namespace wmsn::sim
