#pragma once

#include <cstdint>
#include <functional>
#include <queue>
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
/// The heap holds small {time, seq, slot, generation} entries; the actions
/// themselves live in a slab of slots recycled through a free list, so a
/// steady-state push/pop allocates nothing. A slot's generation advances
/// every time it is freed, which makes cancel() O(1) — free the slot now,
/// and the heap entry it leaves behind no longer matches and is skipped at
/// pop time — and guarantees a stale EventId never reaches the slot's next
/// occupant.
class EventQueue {
 public:
  struct Event {
    Time time;
    EventId id = kInvalidEvent;
    Action action;
  };

  /// Requires a non-empty action.
  EventId push(Time time, Action action);

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
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;  // seq is issued monotonically → FIFO at same time
    }
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct Slot {
    Action action;  ///< empty while the slot is free
    std::uint32_t generation = 1;
    std::uint32_t nextFree = kNoSlot;
  };

  bool stale(const Entry& entry) const {
    return slots_[entry.slot].generation != entry.generation;
  }
  void release(std::uint32_t slot);
  void dropStaleFront();

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::uint32_t freeHead_ = kNoSlot;  ///< head of the free-slot list
  std::uint64_t nextSeq_ = 0;
  std::size_t liveCount_ = 0;
};

}  // namespace wmsn::sim
