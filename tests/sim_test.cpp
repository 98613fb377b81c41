#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace eblnet::sim {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(TimeTest, ConstructionAndConversion) {
  EXPECT_EQ(Time::seconds(std::int64_t{2}).ns(), 2'000'000'000);
  EXPECT_EQ(Time::milliseconds(3).ns(), 3'000'000);
  EXPECT_EQ(Time::microseconds(std::int64_t{7}).ns(), 7'000);
  EXPECT_DOUBLE_EQ(Time::seconds(1.5).to_seconds(), 1.5);
  EXPECT_EQ(Time::seconds(0.5).ns(), 500'000'000);
}

TEST(TimeTest, FractionalSecondsRoundToNearestNanosecond) {
  EXPECT_EQ(Time::seconds(1e-9).ns(), 1);
  EXPECT_EQ(Time::seconds(0.4e-9).ns(), 0);
  EXPECT_EQ(Time::seconds(0.6e-9).ns(), 1);
}

TEST(TimeTest, Arithmetic) {
  const Time a = 2_s, b = 500_ms;
  EXPECT_EQ((a + b).ns(), 2'500'000'000);
  EXPECT_EQ((a - b).ns(), 1'500'000'000);
  EXPECT_EQ((b * 4).ns(), 2'000'000'000);
  EXPECT_EQ(a / b, 4);
  EXPECT_EQ((a % b).ns(), 0);
  EXPECT_EQ((a / 2).ns(), 1'000'000'000);
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(1_ms, 1_s);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_GT(Time::max(), 100000_s);
  EXPECT_TRUE(Time::zero().is_zero());
  EXPECT_TRUE((Time::zero() - 1_ns).is_negative());
}

TEST(TimeTest, ToStringIsSecondsWithNanosecondPrecision) {
  EXPECT_EQ(Time::seconds(1.5).to_string(), "1.500000000");
  EXPECT_EQ(Time::nanoseconds(1).to_string(), "0.000000001");
  EXPECT_EQ((Time::zero() - 250_ms).to_string(), "-0.250000000");
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_s, [&] { order.push_back(3); });
  s.schedule_at(1_s, [&] { order.push_back(1); });
  s.schedule_at(2_s, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_s);
}

TEST(SchedulerTest, SameTimeEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1_s, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, ScheduleInIsRelativeToNow) {
  Scheduler s;
  Time fired{};
  s.schedule_at(5_s, [&] {
    s.schedule_in(2_s, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 7_s);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(1_s, [&] { ran = true; });
  EXPECT_TRUE(s.is_pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.is_pending(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelIsIdempotentAndIgnoresInvalid) {
  Scheduler s;
  const EventId id = s.schedule_at(1_s, [] {});
  s.cancel(id);
  s.cancel(id);
  s.cancel(kInvalidEventId);
  EXPECT_EQ(s.run(), 0u);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int count = 0;
  s.schedule_at(1_s, [&] { ++count; });
  s.schedule_at(2_s, [&] { ++count; });
  s.schedule_at(2_s + 1_ns, [&] { ++count; });
  EXPECT_EQ(s.run_until(2_s), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 2_s);
  EXPECT_EQ(s.pending_count(), 1u);
}

TEST(SchedulerTest, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(10_s);
  EXPECT_EQ(s.now(), 10_s);
}

TEST(SchedulerTest, RejectsPastEvents) {
  Scheduler s;
  s.schedule_at(5_s, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(4_s, [] {}), std::invalid_argument);
}

TEST(SchedulerTest, EventsScheduledDuringRunAreExecuted) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(1_ms, recurse);
  };
  s.schedule_at(Time::zero(), recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99_ms);
}

TEST(SchedulerTest, MaxEventsBoundsRun) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_in(1_ms, forever); };
  s.schedule_at(Time::zero(), forever);
  EXPECT_EQ(s.run(500), 500u);
}

TEST(SchedulerTest, ClearDropsPendingEvents) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(1_s, [&] { ran = true; });
  s.clear();
  EXPECT_EQ(s.pending_count(), 0u);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelledEventHidingFutureOneIsHandledByRunUntil) {
  Scheduler s;
  // A cancelled event at 1s sits at the heap top; behind it an event at 3s.
  const EventId id = s.schedule_at(1_s, [] { FAIL(); });
  bool ran = false;
  s.schedule_at(3_s, [&] { ran = true; });
  s.cancel(id);
  EXPECT_EQ(s.run_until(2_s), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.run_until(3_s), 1u);
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, RunUntilAdvancesClockPastLastEvent) {
  // The bound is where simulated time ends up, even when the last event
  // fires earlier: a 32 s trial whose traffic dies at 20 s still reports
  // now() == 32 s, so rate denominators use the full window.
  Scheduler s;
  s.schedule_at(1_s, [] {});
  EXPECT_EQ(s.run_until(10_s), 1u);
  EXPECT_EQ(s.now(), 10_s);
}

TEST(SchedulerTest, RunUntilAdvancesClockWhenOnlyCancelledEventsRemain) {
  Scheduler s;
  const EventId id = s.schedule_at(2_s, [] { FAIL(); });
  s.cancel(id);
  EXPECT_EQ(s.run_until(5_s), 0u);
  EXPECT_EQ(s.now(), 5_s);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, StaleIdOfFiredEventDoesNotCancelRecycledSlot) {
  // Slots are recycled; the generation tag must keep an id from a fired
  // event from acting on whatever reuses its slot.
  Scheduler s;
  bool first = false, second = false;
  const EventId a = s.schedule_at(1_s, [&] { first = true; });
  s.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(s.is_pending(a));
  const EventId b = s.schedule_at(2_s, [&] { second = true; });
  s.cancel(a);  // stale: must not touch b even if it reuses a's slot
  EXPECT_TRUE(s.is_pending(b));
  s.run();
  EXPECT_TRUE(second);
}

TEST(SchedulerTest, ClearInvalidatesOutstandingIds) {
  Scheduler s;
  const EventId a = s.schedule_at(1_s, [] { FAIL(); });
  s.clear();
  bool ran = false;
  const EventId b = s.schedule_at(1_s, [&] { ran = true; });
  s.cancel(a);  // id from before clear(); must not hit b
  EXPECT_TRUE(s.is_pending(b));
  s.run();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, HeavyChurnKeepsFifoOrderAndCounts) {
  // Schedule/cancel churn recycles slots aggressively; FIFO tie-break
  // and pending/executed counters must survive it.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      ids.push_back(s.schedule_at(1_s, [&order, round, i] { order.push_back(round * 8 + i); }));
    }
    s.cancel(ids[ids.size() - 2]);  // drop the 7th of each batch
  }
  EXPECT_EQ(s.pending_count(), 50u * 7u);
  s.run();
  EXPECT_EQ(order.size(), 50u * 7u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(s.executed_count(), 50u * 7u);
}

TEST(SchedulerTest, SameTimeFifoSurvivesSlotRecycling) {
  // Fire a first batch so its slots land on the free list (popped LIFO:
  // the recycled slot indices come back in REVERSE schedule order), then
  // schedule a same-time batch into those recycled slots. FIFO must come
  // from the sequence number, not from slot-index order.
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    s.schedule_at(1_s, [&order, i] { order.push_back(i); });
  }
  s.run_until(1_s);
  ASSERT_EQ(order.size(), 6u);
  order.clear();

  for (int i = 0; i < 6; ++i) {
    s.schedule_at(2_s, [&order, i] { order.push_back(i); });
  }
  // Cancel two mid-batch events and reschedule into the re-recycled
  // slots, still at the same timestamp, to shuffle the slot table more.
  const EventId c2 = s.schedule_at(2_s, [] { FAIL(); });
  const EventId c3 = s.schedule_at(2_s, [] { FAIL(); });
  s.cancel(c2);
  s.cancel(c3);
  for (int i = 6; i < 10; ++i) {
    s.schedule_at(2_s, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

// A node owns over a dozen Timers, so the 16-byte handler budget must keep
// each one small.
static_assert(sizeof(Timer) <= 80);

TEST(TimerTest, FiresOnceAtScheduledTime) {
  Scheduler s;
  int fired = 0;
  Timer t{s, [&] { ++fired; }};
  t.schedule_in(1_s);
  EXPECT_TRUE(t.pending());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(TimerTest, RescheduleReplacesPendingShot) {
  Scheduler s;
  std::vector<Time> fired;
  Timer t{s, [&] { fired.push_back(s.now()); }};
  t.schedule_in(1_s);
  t.schedule_in(2_s);
  s.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2_s);
}

TEST(TimerTest, CancelStopsExpiry) {
  Scheduler s;
  int fired = 0;
  Timer t{s, [&] { ++fired; }};
  t.schedule_in(1_s);
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, CanRescheduleItselfFromCallback) {
  Scheduler s;
  int fired = 0;
  Timer t{s, [&] {
            if (++fired < 5) t.schedule_in(1_s);
          }};
  t.schedule_in(1_s);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), 5_s);
}

TEST(TimerTest, DestroyingOwnerFromCallbackIsSafe) {
  Scheduler s;
  auto t = std::make_unique<Timer>(s, [] {});
  auto killer = std::make_unique<Timer>(s, [&] { t.reset(); });
  t->schedule_in(2_s);
  killer->schedule_in(1_s);
  s.run();
  EXPECT_EQ(t, nullptr);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r{7};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng r{7};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[r.uniform_int(std::uint64_t{10})];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng r{3};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(std::int64_t{-5}, std::int64_t{5});
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r{11};
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng r{13};
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(RngTest, UniformTimeStaysInRange) {
  Rng r{17};
  for (int i = 0; i < 1000; ++i) {
    const Time t = r.uniform_time(1_s, 2_s);
    ASSERT_GE(t, 1_s);
    ASSERT_LT(t, 2_s);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a{42};
  Rng child = a.split();
  Rng a2{42};
  Rng child2 = a2.split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

}  // namespace
}  // namespace eblnet::sim
