#pragma once

#include <cstdint>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace wmsn::sim {

/// Handle to a scheduled event: the event's slot in the queue's slab (low 32
/// bits) plus that slot's generation (high 32 bits). Generations start at 1,
/// so no handle is ever kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Priority queue of timed callbacks with stable ordering: events at the same
/// timestamp fire in insertion order (a sequence number breaks ties), so a
/// simulation never depends on heap-internal ordering.
///
/// The actions live in a slab of slots recycled through a free list, so a
/// steady-state push/pop allocates nothing. A binary min-heap orders small
/// {time, seq, slot} entries, one per *run*: a push whose time equals the
/// previous push's time, with no pop in between, takes the next sequence
/// number and is linked after that push's slot instead of entering the heap.
/// A run's seqs are consecutive at one time, so no other event sorts between
/// them, and popping a run head advances the heap top in place (seq + 1,
/// next slot) without a sift; only a run's last member leaves the heap.
///
/// A slot's generation advances when its event fires or is cancelled, which
/// makes cancel() O(1) and guarantees a stale EventId never reaches the
/// slot's next occupant. A cancelled event's action is destroyed at once,
/// but its slot stays linked in its run until pop() or nextTime() walks
/// past it; only then does it return to the free list.
class EventQueue {
 public:
  struct Event {
    Time time;
    EventId id = kInvalidEvent;
    Action action;
  };

  /// Requires a non-empty action.
  EventId push(Time time, Action&& action);

  /// Cancels a pending event and destroys its action. Returns false if the
  /// id was never scheduled or already fired/cancelled.
  bool cancel(EventId id);

  bool empty() const { return liveCount_ == 0; }
  std::size_t size() const { return liveCount_; }

  /// Time of the earliest live event. Requires !empty().
  Time nextTime();

  /// Removes and returns the earliest live event. Requires !empty().
  Event pop();

  /// Drops every pending event (their actions are destroyed). Ids issued
  /// before clear() stay invalid afterwards.
  void clear();

 private:
  /// The heap entry of a run: its time and its head slot's seq and slot.
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;  // seq is issued monotonically → FIFO at same time
    }
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct Slot {
    Action action;  ///< empty once the event fired or was cancelled
    std::uint32_t generation = 1;
    /// The next member of the slot's run, or the next free slot.
    std::uint32_t next = kNoSlot;
  };

  void advanceTop();
  void dropCancelledFront();

  std::vector<Entry> heap_;  ///< min-heap on (time, seq), one entry per run
  std::vector<Slot> slots_;
  std::uint32_t freeHead_ = kNoSlot;  ///< head of the free-slot list
  /// The last push's slot while a same-time push may still join its run;
  /// kNoSlot after any pop.
  std::uint32_t tail_ = kNoSlot;
  Time tailTime_;
  std::uint64_t nextSeq_ = 0;
  std::size_t liveCount_ = 0;
};

}  // namespace wmsn::sim
