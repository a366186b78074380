#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
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
  const EventId first = q.push(Time{1}, [&] { fired.push_back(1); });
  EXPECT_TRUE(q.cancel(first));
  // The freed slot is recycled; the stale id must not reach the new event.
  const EventId second = q.push(Time{2}, [&] { fired.push_back(2); });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  // Same for an id whose event already fired.
  q.pop().action();
  const EventId third = q.push(Time{3}, [&] { fired.push_back(3); });
  EXPECT_FALSE(q.cancel(second));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_FALSE(q.cancel(third));
  EXPECT_FALSE(q.cancel(kInvalidEvent));
}

TEST(EventQueue, FifoAtSameTimestampAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(q.push(Time{5}, [&fired, i] { fired.push_back(i); }));
  // Free low slots, then refill them: later pushes land in earlier slots
  // but must still fire after every earlier push at the same time.
  EXPECT_TRUE(q.cancel(ids[0]));
  EXPECT_TRUE(q.cancel(ids[2]));
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
