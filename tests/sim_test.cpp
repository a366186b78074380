#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/require.hpp"

namespace wmsn::sim {
namespace {

TEST(Time, ArithmeticAndConversions) {
  const Time a = Time::seconds(1.5);
  EXPECT_EQ(a.us, 1'500'000);
  EXPECT_DOUBLE_EQ(a.seconds(), 1.5);
  EXPECT_DOUBLE_EQ(a.millis(), 1500.0);
  EXPECT_EQ((a + Time::milliseconds(500)).us, 2'000'000);
  EXPECT_EQ((a - Time::microseconds(500'000)).us, 1'000'000);
  EXPECT_LT(Time::zero(), a);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time{30}, [&] { fired.push_back(3); });
  q.push(Time{10}, [&] { fired.push_back(1); });
  q.push(Time{20}, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableFifoAtSameTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    q.push(Time{5}, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time{1}, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time{1}, [&] { fired.push_back(1); });
  const EventId mid = q.push(Time{2}, [&] { fired.push_back(2); });
  q.push(Time{3}, [&] { fired.push_back(3); });
  q.cancel(mid);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), PreconditionError);
  EXPECT_THROW(q.nextTime(), PreconditionError);
}

TEST(EventQueue, CancelOfReusedSlotIdIsRejected) {
  EventQueue q;
  std::vector<int> fired;
  const auto slotOf = [](EventId id) { return static_cast<std::uint32_t>(id); };
  const EventId first = q.push(Time{1}, [&] { fired.push_back(1); });
  EXPECT_TRUE(q.cancel(first));
  const EventId second = q.push(Time{2}, [&] { fired.push_back(2); });
  // A cancelled slot is freed once the queue walks past it; the recycled
  // slot's stale id must not reach the new event.
  EXPECT_EQ(q.nextTime().us, 2);
  const EventId third = q.push(Time{3}, [&] { fired.push_back(3); });
  EXPECT_EQ(slotOf(third), slotOf(first));
  EXPECT_NE(first, third);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 2u);
  // Same for an id whose event already fired: its slot is freed at once.
  q.pop().action();
  const EventId fourth = q.push(Time{4}, [&] { fired.push_back(4); });
  EXPECT_EQ(slotOf(fourth), slotOf(second));
  EXPECT_FALSE(q.cancel(second));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{2, 3, 4}));
  EXPECT_FALSE(q.cancel(third));
  EXPECT_FALSE(q.cancel(fourth));
  EXPECT_FALSE(q.cancel(kInvalidEvent));
}

TEST(EventQueue, FifoAtSameTimestampAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(q.push(Time{5}, [&fired, i] { fired.push_back(i); }));
  // Free a low slot (nextTime walks past the cancelled run head), then
  // refill it: a later push lands in an earlier slot but must still fire
  // after every earlier push at the same time.
  EXPECT_TRUE(q.cancel(ids[0]));
  EXPECT_TRUE(q.cancel(ids[2]));
  EXPECT_EQ(q.nextTime().us, 5);
  for (int i = 6; i < 9; ++i)
    q.push(Time{5}, [&fired, i] { fired.push_back(i); });
  q.push(Time{4}, [&fired] { fired.push_back(-1); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{-1, 1, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, SizeTracksMixedCancelAndPop) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.push(Time{i}, [] {}));
  EXPECT_EQ(q.size(), 8u);
  EXPECT_TRUE(q.cancel(ids[0]));  // the heap front: skipped lazily
  EXPECT_TRUE(q.cancel(ids[5]));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.nextTime().us, 1);
  EXPECT_EQ(q.pop().time.us, 1);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_FALSE(q.cancel(ids[1]));  // already fired
  EXPECT_TRUE(q.cancel(ids[7]));
  q.push(Time{9}, [] {});
  EXPECT_EQ(q.size(), 5u);
  std::vector<std::int64_t> times;
  while (!q.empty()) times.push_back(q.pop().time.us);
  EXPECT_EQ(times, (std::vector<std::int64_t>{2, 3, 4, 6, 9}));
  EXPECT_EQ(q.size(), 0u);
}

void drain(EventQueue& q) {
  while (!q.empty()) {
    const Time t = q.nextTime();
    EventQueue::Event ev = q.pop();
    EXPECT_EQ(ev.time, t);
    ev.action();
  }
}

TEST(EventQueue, CancelRunHeadMiddleAndTail) {
  // Back-to-back pushes at one time share one heap entry (a run).
  for (const std::vector<int>& cancelled :
       {std::vector<int>{0}, std::vector<int>{2}, std::vector<int>{4},
        std::vector<int>{0, 2, 4}, std::vector<int>{0, 1, 2, 3, 4}}) {
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i)
      ids.push_back(q.push(Time{5}, [&fired, i] { fired.push_back(i); }));
    q.push(Time{6}, [&fired] { fired.push_back(9); });
    std::vector<int> expected;
    for (int i = 0; i < 5; ++i) {
      const bool cancel = std::find(cancelled.begin(), cancelled.end(), i) !=
                          cancelled.end();
      if (cancel) {
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
      } else {
        expected.push_back(i);
      }
    }
    expected.push_back(9);
    EXPECT_EQ(q.size(), expected.size());
    for (const int i : cancelled)
      EXPECT_FALSE(q.cancel(ids[static_cast<std::size_t>(i)]));
    drain(q);
    EXPECT_EQ(fired, expected);
  }
}

TEST(EventQueue, SameTimePushAfterPopFiresAfterTheRun) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i)
    q.push(Time{5}, [&fired, i] { fired.push_back(i); });
  q.pop().action();
  // Pushed after a pop, at the run's time: it starts a new run, and its
  // later seq puts it behind every remaining member of the first one.
  q.push(Time{5}, [&fired] { fired.push_back(3); });
  // A push from inside a popped action at `now` goes behind both.
  q.push(Time{5}, [&] {
    fired.push_back(4);
    q.push(Time{5}, [&fired] { fired.push_back(6); });
  });
  q.push(Time{5}, [&fired] { fired.push_back(5); });
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));

  // Popping a run's last member frees its slot: a same-time push must not
  // link after it (the freed slot is the next one handed out).
  q.push(Time{9}, [] {});
  q.push(Time{5}, [] {});
  EXPECT_EQ(q.pop().time.us, 5);
  q.push(Time{5}, [] {});
  ASSERT_EQ(q.nextTime().us, 5);
  EXPECT_EQ(q.pop().time.us, 5);
  EXPECT_EQ(q.pop().time.us, 9);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeDropsCancelledRunHead) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(q.push(Time{3}, [] {}));
  q.push(Time{7}, [] {});
  EXPECT_TRUE(q.cancel(ids[0]));
  EXPECT_EQ(q.nextTime().us, 3);  // the run's second member is live
  EXPECT_TRUE(q.cancel(ids[1]));
  EXPECT_TRUE(q.cancel(ids[2]));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.nextTime().us, 7);  // the whole run is gone
  EXPECT_EQ(q.pop().time.us, 7);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearMidRunRejectsOldIdsAndReusesSlots) {
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(q.push(Time{5}, [&fired] { ++fired; }));
  q.pop().action();
  EXPECT_TRUE(q.cancel(ids[2]));
  q.clear();
  EXPECT_TRUE(q.empty());
  for (const EventId id : ids) EXPECT_FALSE(q.cancel(id));
  std::vector<EventId> fresh;
  for (int i = 0; i < 4; ++i)
    fresh.push_back(q.push(Time{5}, [&fired] { ++fired; }));
  for (const EventId id : fresh) {
    EXPECT_LT(static_cast<std::uint32_t>(id), 4u);  // the slab did not grow
    EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 0);
  }
  for (const EventId id : ids) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 4u);
  drain(q);
  EXPECT_EQ(fired, 5);
}

// Seeded differential test: random interleavings of pushes (single and
// same-time bursts of 1-20), pops, cancels (live and dead ids) and pushes
// from inside a popped action, checked against a reference that pops the
// pending event with the smallest (time, push index).
TEST(EventQueue, MatchesSortedReferenceUnderRandomInterleaving) {
  struct Pending {
    std::int64_t time;
    std::uint64_t index;
    EventId id;
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::vector<Pending> pending;
    std::vector<EventId> dead;
    std::vector<std::uint64_t> fired;
    std::uint64_t pushes = 0;
    std::int64_t now = 0;
    std::function<void(std::int64_t, int)> pushOne = [&](std::int64_t time,
                                                         int nested) {
      const std::uint64_t index = pushes++;
      const EventId id = q.push(Time{time}, [&, index, time, nested] {
        fired.push_back(index);
        for (int i = 0; i < nested; ++i) pushOne(time, 0);
      });
      pending.push_back({time, index, id});
    };
    const auto popOne = [&] {
      const auto best = std::min_element(
          pending.begin(), pending.end(),
          [](const Pending& a, const Pending& b) {
            return std::tie(a.time, a.index) < std::tie(b.time, b.index);
          });
      const Pending expected = *best;
      pending.erase(best);
      if (rng.uniformInt(0, 1) == 0) {
        EXPECT_EQ(q.nextTime().us, expected.time);
      }
      EventQueue::Event ev = q.pop();
      EXPECT_EQ(ev.time.us, expected.time);
      EXPECT_EQ(ev.id, expected.id);
      now = ev.time.us;
      ev.action();
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expected.index);
      dead.push_back(ev.id);
    };
    for (int op = 0; op < 10000; ++op) {
      const std::int64_t roll = rng.uniformInt(0, 99);
      if (roll < 15) {  // same-time burst
        const std::int64_t time = now + rng.uniformInt(0, 6);
        const std::int64_t count = rng.uniformInt(1, 20);
        for (std::int64_t i = 0; i < count; ++i)
          pushOne(time, rng.uniformInt(0, 9) == 0 ? 2 : 0);
      } else if (roll < 30) {  // single push, maybe nesting pushes at now
        pushOne(now + rng.uniformInt(0, 10),
                static_cast<int>(rng.uniformInt(0, 3)));
      } else if (roll < 85) {
        for (std::int64_t n = rng.uniformInt(1, 8); n > 0 && !pending.empty();
             --n)
          popOne();
      } else if (roll < 97) {
        if (!pending.empty()) {
          const std::size_t victim = rng.index(pending.size());
          EXPECT_TRUE(q.cancel(pending[victim].id));
          dead.push_back(pending[victim].id);
          pending.erase(pending.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }
      } else if (!dead.empty()) {
        EXPECT_FALSE(q.cancel(dead[rng.index(dead.size())]));
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    while (!pending.empty()) popOne();
    EXPECT_TRUE(q.empty());
  }
}

// Counts destructions of live (not moved-from) instances.
struct DestroyCounter {
  int* count;
  explicit DestroyCounter(int* c) : count(c) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : count(std::exchange(other.count, nullptr)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (count != nullptr) ++*count;
  }
};

TEST(Action, InlineAndHeapCallablesRun) {
  int small = 0;
  auto smallFn = [&small] { ++small; };
  std::array<std::uint64_t, 16> big{};
  big[15] = 7;
  std::uint64_t sum = 0;
  auto bigFn = [&sum, big] { sum += big[15]; };
  static_assert(Action::fitsInline<decltype(smallFn)>());
  static_assert(!Action::fitsInline<decltype(bigFn)>());

  Action a = smallFn;
  Action b = bigFn;
  a();
  b();
  // Moving transfers the callable and leaves the source empty.
  Action a2 = std::move(a);
  Action b2;
  b2 = std::move(b);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  a2();
  b2();
  EXPECT_EQ(small, 2);
  EXPECT_EQ(sum, 14u);
  EXPECT_FALSE(static_cast<bool>(Action{}));
  EXPECT_FALSE(static_cast<bool>(Action{nullptr}));
}

TEST(Action, MoveOnlyCaptureWorks) {
  auto value = std::make_unique<int>(41);
  int seen = 0;
  Action act = [&seen, value = std::move(value)]() mutable {
    seen = ++*value;
  };
  EventQueue q;
  q.push(Time{1}, std::move(act));
  q.pop().action();
  EXPECT_EQ(seen, 42);
}

TEST(Action, DestructorRunsOnceOnFireCancelAndClear) {
  const auto check = [](auto padding) {
    int fired = 0, cancelled = 0, cleared = 0;
    EventQueue q;
    q.push(Time{1},
           [c = DestroyCounter(&fired), padding] { (void)padding; });
    const EventId id = q.push(
        Time{2}, [c = DestroyCounter(&cancelled), padding] { (void)padding; });
    q.pop().action();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(cancelled, 1);
    q.push(Time{3},
           [c = DestroyCounter(&cleared), padding] { (void)padding; });
    q.clear();
    EXPECT_EQ(cleared, 1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired + cancelled + cleared, 3);
  };
  check(std::array<char, 1>{});    // inline
  check(std::array<char, 128>{});  // heap fallback
}

TEST(Simulator, AdvancesClockToEventTime) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule(Time{100}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.us, 100);
  EXPECT_EQ(sim.now().us, 100);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule(Time{10}, [&] {
    times.push_back(sim.now().us);
    sim.schedule(Time{5}, [&] { times.push_back(sim.now().us); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    sim.schedule(Time{i * 10}, [&] { ++fired; });
  sim.runUntil(Time{50});
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().us, 50);
  sim.runUntil(Time{100});
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.runUntil(Time{1234});
  EXPECT_EQ(sim.now().us, 1234);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Time{1}, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(Time{2}, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A second run resumes with the remaining event.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Time{10}, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(Time{10}, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(Time{5}, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule(Time{-1}, [] {}), PreconditionError);
}

TEST(Simulator, EventLimit) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(Time{i}, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  sim.schedule(Time{10}, [] {});
  sim.schedule(Time{20}, [] {});
  sim.run(1);
  sim.reset();
  EXPECT_EQ(sim.now().us, 0);
  EXPECT_FALSE(sim.pendingEvents());
  EXPECT_EQ(sim.eventsProcessed(), 0u);
}

TEST(Simulator, CountsEventsProcessed) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(Time{i + 1}, [] {});
  sim.run();
  EXPECT_EQ(sim.eventsProcessed(), 5u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical simulations produce the same event count and final time.
  auto runOnce = [] {
    Simulator sim;
    std::uint64_t sum = 0;
    std::function<void(int)> spawn = [&](int depth) {
      sum += static_cast<std::uint64_t>(sim.now().us);
      if (depth < 6)
        for (int i = 1; i <= 2; ++i)
          sim.schedule(Time{i * 3}, [&spawn, depth] { spawn(depth + 1); });
    };
    sim.schedule(Time{1}, [&] { spawn(0); });
    sim.run();
    return std::make_pair(sum, sim.eventsProcessed());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace wmsn::sim
