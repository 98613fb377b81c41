#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
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

TEST(SchedulerTest, PostponeMovesOnlyPendingEventsLater) {
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.schedule_at(1_s, [&] { order.push_back(0); });
  s.schedule_at(2_s, [&] { order.push_back(1); });
  EXPECT_FALSE(s.postpone(a, 500_ms));  // earlier: refused, nothing moves
  EXPECT_TRUE(s.postpone(a, 2_s));      // fresh seq: after the event already at 2 s
  EXPECT_TRUE(s.is_pending(a));
  EXPECT_EQ(s.pending_count(), 2u);
  EXPECT_FALSE(s.postpone(kInvalidEventId, 3_s));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(s.now(), 2_s);
  EXPECT_FALSE(s.postpone(a, 3_s));  // already fired

  const EventId b = s.schedule_at(3_s, [] { FAIL(); });
  s.cancel(b);
  EXPECT_FALSE(s.postpone(b, 4_s));  // cancelled events stay cancelled
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.run_until(5_s), 0u);
}

TEST(SchedulerTest, RunUntilStopsBeforeAPostponedEvent) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(1_s, [&] { ran = true; });
  ASSERT_TRUE(s.postpone(id, 3_s));
  EXPECT_EQ(s.run_until(2_s), 0u);  // the entry surfaced at 1 s and was re-keyed
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.now(), 2_s);
  EXPECT_EQ(s.run_until(3_s), 1u);
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// Fixed-delay lanes
// ---------------------------------------------------------------------------

TEST(SchedulerLaneTest, HeapAndLaneEventsAtOneInstantFireInSeqOrder) {
  for (const bool lane_first : {true, false}) {
    SCOPED_TRACE(lane_first ? "lane event scheduled first" : "heap event scheduled first");
    Scheduler s;
    const Scheduler::Lane lane = s.lane(2_s);
    std::string order;
    const auto by_lane = [&] { s.schedule_in(lane, [&] { order += 'L'; }); };
    const auto by_heap = [&] { s.schedule_at(2_s, [&] { order += 'H'; }); };
    if (lane_first) {
      by_lane();
      by_heap();
    } else {
      by_heap();
      by_lane();
    }
    EXPECT_EQ(s.run_until(2_s), 2u);  // the inclusive bound lands on both
    EXPECT_EQ(order, lane_first ? "LH" : "HL");
  }
}

TEST(SchedulerLaneTest, ClearDropsLaneEventsAndTheirIds) {
  Scheduler s;
  const Scheduler::Lane lane = s.lane(1_s);
  bool stale_ran = false;
  const EventId a = s.schedule_in(lane, [&] { stale_ran = true; });
  s.schedule_in(lane, [&] { stale_ran = true; });
  s.schedule_at(1_s, [&] { stale_ran = true; });
  s.clear();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.queued_entries(), 0u);
  EXPECT_FALSE(s.is_pending(a));
  EXPECT_FALSE(s.postpone(a, 2_s));

  // The lane survives the clear, and the old id cannot reach the event
  // that recycles its slot.
  int fired = 0;
  const EventId b = s.schedule_in(lane, [&] { ++fired; });
  s.cancel(a);
  EXPECT_TRUE(s.is_pending(b));
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(stale_ran);
  EXPECT_EQ(s.now(), 1_s);
}

TEST(SchedulerLaneTest, RejectsANegativeDelayByName) {
  Scheduler s;
  try {
    s.lane(Time::zero() - 1_ms);
    ADD_FAILURE() << "a negative lane delay was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("-0.001000000"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(s.lane(Time::zero()));
}

// A default-constructed handle names no lane; each entry point that takes
// a handle rejects it by name instead of reading past the lane table.
void expect_no_lane(const std::function<void()>& use) {
  try {
    use();
    ADD_FAILURE() << "a handle that names no lane was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("lane handle 4294967295"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerLaneTest, ScheduleInRejectsAHandleThatNamesNoLane) {
  Scheduler s;
  s.lane(1_s);
  expect_no_lane([&] { s.schedule_in(Scheduler::Lane{}, [] {}); });
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerLaneTest, LaneDelayRejectsAHandleThatNamesNoLane) {
  Scheduler s;
  expect_no_lane([&] { s.lane_delay(Scheduler::Lane{}); });
}

TEST(SchedulerLaneTest, TimerScheduleInRejectsAHandleThatNamesNoLane) {
  Scheduler s;
  Timer t{s, [] {}};
  expect_no_lane([&] { t.schedule_in(Scheduler::Lane{}); });
  EXPECT_FALSE(t.pending());
}

// ---------------------------------------------------------------------------
// Reserved keys and the entry layout
// ---------------------------------------------------------------------------

TEST(SchedulerReservedTest, AReservedKeyFiresWhereAnEventScheduledThenWould) {
  Scheduler s;
  std::string order;
  s.schedule_at(2_s, [&] { order += 'a'; });
  const std::uint64_t seq = s.reserve_seq();
  s.schedule_at(2_s, [&] { order += 'c'; });
  s.schedule_at(1_s, [&] {
    order += '1';
    s.schedule_reserved(2_s, seq, [&] { order += 'b'; });
  });
  EXPECT_EQ(s.run(), 4u);
  EXPECT_EQ(order, "1abc");
}

TEST(SchedulerReservedTest, RejectsASeqNeverHandedOut) {
  Scheduler s;
  const std::uint64_t seq = s.reserve_seq();
  EXPECT_THROW(s.schedule_reserved(1_s, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_reserved(1_s, seq + 1, [] {}), std::invalid_argument);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_NO_THROW(s.schedule_reserved(1_s, seq, [] {}));
}

TEST(SchedulerReservedTest, RejectsATimeBeforeNow) {
  Scheduler s;
  const std::uint64_t seq = s.reserve_seq();
  s.run_until(2_s);
  EXPECT_THROW(s.schedule_reserved(1_s, seq, [] {}), std::invalid_argument);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_NO_THROW(s.schedule_reserved(2_s, seq, [] {}));
}

TEST(SchedulerReservedTest, KeyPackingThrowsAtTheSeqAndSlotLimits) {
  constexpr std::uint64_t kSeqMax = (std::uint64_t{1} << 40) - 1;
  constexpr std::uint64_t kSlotMax = (std::uint64_t{1} << 24) - 1;
  EXPECT_EQ(Scheduler::pack_key(1, 0), std::uint64_t{1} << 24);
  EXPECT_EQ(Scheduler::pack_key(kSeqMax, kSlotMax), UINT64_MAX);
  EXPECT_THROW(Scheduler::pack_key(kSeqMax + 1, 0), std::length_error);
  EXPECT_THROW(Scheduler::pack_key(1, kSlotMax + 1), std::length_error);
}

TEST(SchedulerReservedTest, ReserveSeqsTakesConsecutiveSeqsOrNoneAtTheLimit) {
  Scheduler s;
  const std::uint64_t first = s.reserve_seqs(3);
  EXPECT_EQ(s.reserve_seq(), first + 3);
  EXPECT_EQ(s.reserve_seqs(0), first + 4);  // takes nothing
  EXPECT_THROW(s.reserve_seqs(std::uint64_t{1} << 40), std::length_error);
  EXPECT_EQ(s.reserve_seq(), first + 4);  // the failed call took nothing
}

TEST(SchedulerReservedTest, ClaimRunsAReservedKeyOnlyAheadOfTheQueueAndInsideTheLoopBound) {
  Scheduler s;
  std::string order;
  const std::uint64_t seq = s.reserve_seqs(3);
  EXPECT_FALSE(s.claim(1_s, seq));  // outside a run loop
  s.schedule_at(2_s, [&] { order += 'x'; });
  s.schedule_reserved(1_s, seq, [&] {
    order += 'a';
    // (1 s, seq + 1) comes before the queued 2 s event; (3 s, seq + 2)
    // does not.
    if (s.claim(1_s, seq + 1)) order += 'b';
    EXPECT_EQ(s.now(), 1_s);
    if (!s.claim(3_s, seq + 2)) s.schedule_reserved(3_s, seq + 2, [&] { order += 'c'; });
  });
  EXPECT_EQ(s.run(), 4u);  // the claimed key counts
  EXPECT_EQ(order, "abxc");
  EXPECT_EQ(s.executed_count(), 4u);

  // The loop's bounds: run_until's time and run's budget.
  std::string bounded;
  const std::uint64_t more = s.reserve_seqs(2);
  s.schedule_reserved(4_s, more, [&] {
    bounded += 'd';
    if (!s.claim(5_s, more + 1)) s.schedule_reserved(5_s, more + 1, [&] { bounded += 'e'; });
  });
  EXPECT_EQ(s.run_until(4500_ms), 1u);
  EXPECT_EQ(bounded, "d");
  EXPECT_EQ(s.now(), 4500_ms);
  EXPECT_EQ(s.run(1), 1u);
  EXPECT_EQ(bounded, "de");
  const std::uint64_t last = s.reserve_seqs(2);
  s.schedule_reserved(6_s, last, [&] {
    bounded += 'f';
    if (!s.claim(6_s, last + 1)) s.schedule_reserved(6_s, last + 1, [&] { bounded += 'g'; });
  });
  EXPECT_EQ(s.run(1), 1u);  // the budget is spent: g is queued, not claimed
  EXPECT_EQ(bounded, "def");
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(bounded, "defg");
}

// ---------------------------------------------------------------------------
// Muted lane events
// ---------------------------------------------------------------------------

TEST(SchedulerMuteTest, OnlyAPendingLaneEventThatIsNotPostponedMutes) {
  Scheduler s;
  const Scheduler::Lane lane = s.lane(1_s);
  int ran = 0;
  const EventId heap = s.schedule_at(1_s, [&] { ++ran; });
  const EventId laned = s.schedule_in(lane, [&] { ++ran; });
  const EventId postponed = s.schedule_in(lane, [&] { ++ran; });
  ASSERT_TRUE(s.postpone(postponed, 2_s));
  EXPECT_FALSE(s.mute(heap));
  EXPECT_FALSE(s.mute(postponed));
  EXPECT_FALSE(s.mute(kInvalidEventId));
  EXPECT_TRUE(s.mute(laned));
  EXPECT_FALSE(s.is_muted(heap));
  EXPECT_FALSE(s.is_muted(postponed));
  EXPECT_TRUE(s.is_muted(laned));

  // The muted event falls due at 1 s and 2 s: each time it counts as
  // executed and comes back a lane delay later, and its callback never runs.
  EXPECT_EQ(s.run_until(2_s), 4u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.executed_count(), 4u);
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_TRUE(s.is_pending(laned));
  EXPECT_EQ(s.muted_ticks(laned), 2u);
  EXPECT_EQ(s.due_at(laned), 3_s);
  EXPECT_EQ(s.unmute(laned), 2u);
  EXPECT_FALSE(s.is_muted(laned));
  EXPECT_EQ(s.unmute(laned), 0u);
  EXPECT_EQ(s.run_until(3_s), 1u);
  EXPECT_EQ(ran, 3);
  EXPECT_FALSE(s.mute(laned));  // fired: no longer pending
}

TEST(SchedulerMuteTest, ClearDropsMutedEventsAndTheirIds) {
  Scheduler s;
  const Scheduler::Lane lane = s.lane(1_s);
  bool stale_ran = false;
  const EventId a = s.schedule_in(lane, [&] { stale_ran = true; });
  ASSERT_TRUE(s.mute(a));
  EXPECT_EQ(s.run_until(2_s), 2u);
  ASSERT_EQ(s.muted_ticks(a), 2u);
  s.clear();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.queued_entries(), 0u);
  EXPECT_FALSE(s.is_pending(a));
  EXPECT_FALSE(s.is_muted(a));
  EXPECT_EQ(s.muted_ticks(a), 0u);
  EXPECT_EQ(s.unmute(a), 0u);

  // The stale id reaches neither the event that recycles its slot nor
  // that event's mute state.
  int fired = 0;
  const EventId b = s.schedule_in(lane, [&] { ++fired; });
  EXPECT_FALSE(s.mute(a));
  EXPECT_FALSE(s.is_muted(b));
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(stale_ran);
  EXPECT_EQ(s.now(), 3_s);
}

TEST(SchedulerMuteTest, UnmutedTickAndHeapEventAtOneInstantFireInSeqOrder) {
  // A muted tick takes its seq when it falls due, as the handler's own
  // re-arm would. A heap event for 3 s scheduled at 1.5 s comes before
  // the tick the 2 s firing re-queues for 3 s; one scheduled at 2.5 s
  // comes after it.
  for (const bool heap_first : {true, false}) {
    SCOPED_TRACE(heap_first ? "heap event scheduled before the 2 s tick"
                            : "heap event scheduled after the 2 s tick");
    Scheduler s;
    const Scheduler::Lane lane = s.lane(1_s);
    std::string order;
    struct Ticker {
      Scheduler::Lane lane;
      std::string& order;
      Timer timer;
    } ticker{lane, order, Timer{s, [&ticker] {
                                 ticker.order += 'T';
                                 ticker.timer.schedule_in(ticker.lane);
                               }}};
    ticker.timer.schedule_in(lane);
    ASSERT_TRUE(ticker.timer.mute());
    s.run_until(heap_first ? 1500_ms : 2500_ms);
    s.schedule_at(3_s, [&] { order += 'H'; });
    s.run_until(2500_ms);
    EXPECT_EQ(ticker.timer.unmute(), 2u);
    EXPECT_EQ(ticker.timer.expires_at(), 3_s);
    EXPECT_EQ(s.run_until(3_s), 2u);
    EXPECT_EQ(order, heap_first ? "HT" : "TH");
  }
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

TEST(TimerTest, LaterRearmsKeepOneHeapEntry) {
  Scheduler s;
  int fired = 0;
  Timer t{s, [&] { ++fired; }};
  t.schedule_at(1_ms);
  for (std::int64_t i = 1; i <= 1000; ++i) t.schedule_at(1_ms + Time::microseconds(i));
  EXPECT_EQ(s.queued_entries(), 1u);
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 2_ms);
  EXPECT_EQ(s.executed_count(), 1u);
  EXPECT_EQ(s.queued_entries(), 0u);
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
// Scheduler + Timer vs a cancel-and-push reference model
// ---------------------------------------------------------------------------

/// What a firing event does next: re-arm timer `timer` (none when < 0) to
/// `delta` after the firing time.
struct Rearm {
  int timer{-1};
  Time delta{};
};

/// Reference semantics in a few lines: a flat list of pending events, and
/// every schedule or timer re-arm takes a fresh seq (cancel + push). A
/// periodic timer re-arms itself `period` after each firing.
///
/// A periodic timer can be muted while its shot waits in a lane: then a
/// firing still re-arms it and counts as executed, but logs nothing (its
/// handler does not run) and adds one to the timer's tick count. Like an
/// owner, every re-arm or cancel of a periodic timer from outside its
/// handler first unmutes it and folds its ticks into `folded`.
class ReferenceQueue {
 public:
  struct Fired {
    int tag;
    Time at;
    bool operator==(const Fired&) const = default;
  };
  struct Periodic {
    Time period;
    bool in_lane{false};  ///< pending shot queued in a lane, not postponed
    bool muted{false};
    std::uint64_t ticks{0};
    std::uint64_t folded{0};
  };

  void schedule(int tag, Time at, Rearm then) { pending_.push_back({tag, at, next_seq_++, then}); }
  /// Takes the next seq and queues nothing.
  std::uint64_t reserve() { return next_seq_++; }
  /// Queues `tag` at the explicit key (at, seq).
  void schedule_at_key(int tag, Time at, std::uint64_t seq, Rearm then) {
    pending_.push_back({tag, at, seq, then});
  }
  void cancel(int tag) {
    std::erase_if(pending_, [tag](const Event& e) { return e.tag == tag; });
  }
  /// Re-arms timer k at `at`: through its lane (Timer::schedule_in(Lane),
  /// which postpones a pending shot due no later) or not (schedule_at).
  void arm_timer(int k, Time at, Rearm then, bool through_lane = false) {
    if (Periodic* p = periodic(k)) {
      fold(*p);
      const Time* due = timer_expiry(k);
      p->in_lane = through_lane && !(due != nullptr && at >= *due);
    }
    cancel(timer_tag(k));
    schedule(timer_tag(k), at, then);
  }
  void cancel_timer(int k) {
    if (Periodic* p = periodic(k)) fold(*p);
    cancel(timer_tag(k));
  }
  void set_period(int k, Time period) { periodic_.emplace(k, Periodic{period}); }
  bool mute(int k) {
    Periodic& p = *periodic(k);
    if (timer_expiry(k) == nullptr || !p.in_lane) return false;
    p.muted = true;
    return true;
  }
  std::uint64_t unmute(int k) {
    Periodic& p = *periodic(k);
    const std::uint64_t ticks = p.ticks;
    p.ticks = 0;
    p.muted = false;
    return ticks;
  }
  const Periodic& periodic_state(int k) const { return periodic_.at(k); }
  const Time* timer_expiry(int k) const {
    for (const Event& e : pending_) {
      if (e.tag == timer_tag(k)) return &e.at;
    }
    return nullptr;
  }
  bool is_pending(int tag) const {
    return std::any_of(pending_.begin(), pending_.end(),
                       [tag](const Event& e) { return e.tag == tag; });
  }

  void run_until(Time until) {
    while (!pending_.empty() && next().at <= until) fire_next();
    if (now_ < until) now_ = until;
  }
  void run(std::uint64_t max_events) {
    for (std::uint64_t n = 0; n < max_events && !pending_.empty(); ++n) fire_next();
  }

  static int timer_tag(int k) { return -1 - k; }

  Time now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t pending_count() const { return pending_.size(); }
  const std::vector<Fired>& log() const { return log_; }

 private:
  struct Event {
    int tag;
    Time at;
    std::uint64_t seq;
    Rearm then;
  };
  Periodic* periodic(int k) {
    const auto it = periodic_.find(k);
    return it == periodic_.end() ? nullptr : &it->second;
  }
  static void fold(Periodic& p) {
    p.folded += p.ticks;
    p.ticks = 0;
    p.muted = false;
  }
  const Event& next() const {
    return *std::min_element(pending_.begin(), pending_.end(), [](const Event& a, const Event& b) {
      return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    });
  }
  void fire_next() {
    const Event e = next();
    cancel(e.tag);
    now_ = e.at;
    ++executed_;
    Periodic* p = e.tag < 0 ? periodic(-1 - e.tag) : nullptr;
    if (p != nullptr && p->muted) {
      ++p->ticks;
      schedule(e.tag, now_ + p->period, Rearm{});
      return;
    }
    log_.push_back({e.tag, e.at});
    if (e.then.timer >= 0) {
      arm_timer(e.then.timer, now_ + e.then.delta, Rearm{},
                /*through_lane=*/periodic(e.then.timer) != nullptr);
    }
    if (p != nullptr) {
      // The handler's own re-arm: the timer is not pending, so it goes
      // through the lane.
      p->in_lane = true;
      schedule(e.tag, now_ + p->period, Rearm{});
    }
  }

  std::vector<Event> pending_;
  std::map<int, Periodic> periodic_;  ///< by timer index
  std::vector<Fired> log_;
  std::uint64_t next_seq_{1};
  Time now_{};
  std::uint64_t executed_{0};
};

/// The real Scheduler and Timers driven through the same operations.
/// Timers [0, heap_timers) re-arm through the heap. Each later timer is
/// periodic: its handler re-arms it through the lane of its period, and
/// a Rearm naming it arms it through that lane too. Re-arming or
/// cancelling a periodic timer from outside its handler first unmutes
/// it and folds the ticks it owes, as an owner must.
class RealQueue {
 public:
  RealQueue(int heap_timers, const std::vector<Time>& lane_periods)
      : heap_timers_{heap_timers},
        timer_then_(static_cast<std::size_t>(heap_timers) + lane_periods.size()),
        folded_(timer_then_.size()) {
    const int timers = heap_timers + static_cast<int>(lane_periods.size());
    for (int k = 0; k < timers; ++k) {
      timers_.push_back(std::make_unique<Timer>(sched_, [this, k] { on_timer(k); }));
    }
    for (const Time period : lane_periods) lanes_.push_back(sched_.lane(period));
  }

  void schedule(int tag, Time at, Rearm then) {
    ids_.push_back(sched_.schedule_at(at, [this, tag, then] {
      log_.push_back({tag, sched_.now()});
      apply(then);
    }));
  }
  /// A raw event through `lane`.
  void schedule_lane(int tag, Scheduler::Lane lane, Rearm then) {
    ids_.push_back(sched_.schedule_in(lane, [this, tag, then] {
      log_.push_back({tag, sched_.now()});
      apply(then);
    }));
  }
  /// A raw event at the reserved key (at, seq).
  void schedule_reserved(int tag, Time at, std::uint64_t seq, Rearm then) {
    ids_.push_back(sched_.schedule_reserved(at, seq, [this, tag, then] {
      log_.push_back({tag, sched_.now()});
      apply(then);
    }));
  }
  /// One key of a reserved range: raw event `tag` at (at, seq).
  struct RangeKey {
    int tag;
    Time at;
    std::uint64_t seq;
    Rearm then;
  };
  /// Queues one event for `keys`, as the channel fans a broadcast out: it
  /// fires the earliest key, then claims each next one while
  /// Scheduler::claim allows, and otherwise re-queues itself at it.
  void schedule_range(std::vector<RangeKey> keys) {
    std::sort(keys.begin(), keys.end(), [](const RangeKey& a, const RangeKey& b) {
      return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    });
    for (const RangeKey& k : keys) {
      ids_.resize(std::max(ids_.size(), static_cast<std::size_t>(k.tag) + 1), kInvalidEventId);
      range_pending_.resize(ids_.size(), false);
      range_pending_[static_cast<std::size_t>(k.tag)] = true;
    }
    ranges_.push_back(std::make_unique<Range>(Range{std::move(keys), 0}));
    Range& r = *ranges_.back();
    sched_.schedule_reserved(r.keys[0].at, r.keys[0].seq, [this, &r] { fire_range(r); });
  }
  /// The next key of the first unfinished range with at least two keys
  /// left, or nullptr.
  const RangeKey* range_key_before_another() const {
    for (const auto& r : ranges_) {
      if (r->keys.size() - r->next >= 2) return &r->keys[r->next];
    }
    return nullptr;
  }
  /// Range keys waiting behind their range's one queued event.
  std::size_t range_backlog() const {
    std::size_t n = 0;
    for (const auto& r : ranges_) {
      if (r->next < r->keys.size()) n += r->keys.size() - r->next - 1;
    }
    return n;
  }
  bool is_range_key(int tag) const {
    return ids_[static_cast<std::size_t>(tag)] == kInvalidEventId;
  }
  std::uint64_t claims() const { return claims_; }
  std::uint64_t requeues() const { return requeues_; }

  void cancel(int tag) { sched_.cancel(ids_[static_cast<std::size_t>(tag)]); }
  void arm_timer(int k, Time at, Rearm then) {
    fold(k);
    timer_then_[static_cast<std::size_t>(k)] = then;
    timer(k).schedule_at(at);
  }
  /// Arms lane timer `k` one period from now, through its lane.
  void arm_lane_timer(int k) {
    fold(k);
    timer(k).schedule_in(lane_of(k));
  }
  void cancel_timer(int k) {
    fold(k);
    timer(k).cancel();
  }
  bool is_pending(int tag) const {
    return is_range_key(tag) ? range_pending_[static_cast<std::size_t>(tag)]
                             : sched_.is_pending(ids_[static_cast<std::size_t>(tag)]);
  }
  Timer& timer(int k) { return *timers_[static_cast<std::size_t>(k)]; }
  std::uint64_t folded(int k) const { return folded_[static_cast<std::size_t>(k)]; }

  Scheduler& sched() { return sched_; }
  const std::vector<ReferenceQueue::Fired>& log() const { return log_; }

 private:
  struct Range {
    std::vector<RangeKey> keys;  ///< sorted by (at, seq)
    std::size_t next{0};
  };
  void fire_range(Range& r) {
    for (;;) {
      const RangeKey& k = r.keys[r.next++];
      range_pending_[static_cast<std::size_t>(k.tag)] = false;
      log_.push_back({k.tag, sched_.now()});
      apply(k.then);
      if (r.next == r.keys.size()) return;
      const RangeKey& n = r.keys[r.next];
      if (!sched_.claim(n.at, n.seq)) {
        ++requeues_;
        sched_.schedule_reserved(n.at, n.seq, [this, &r] { fire_range(r); });
        return;
      }
      ++claims_;
    }
  }

  Scheduler::Lane lane_of(int k) const {
    return lanes_[static_cast<std::size_t>(k - heap_timers_)];
  }
  void fold(int k) { folded_[static_cast<std::size_t>(k)] += timer(k).unmute(); }
  void on_timer(int k) {
    log_.push_back({ReferenceQueue::timer_tag(k), sched_.now()});
    if (k >= heap_timers_) {
      timer(k).schedule_in(lane_of(k));
    } else {
      apply(timer_then_[static_cast<std::size_t>(k)]);
    }
  }
  void apply(Rearm then) {
    if (then.timer >= heap_timers_) {
      arm_lane_timer(then.timer);
    } else if (then.timer >= 0) {
      arm_timer(then.timer, sched_.now() + then.delta, Rearm{});
    }
  }

  int heap_timers_;
  Scheduler sched_;
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<Scheduler::Lane> lanes_;
  std::vector<Rearm> timer_then_;
  std::vector<std::uint64_t> folded_;
  std::vector<EventId> ids_;  ///< by raw tag; kInvalidEventId for a range key
  std::vector<bool> range_pending_;
  std::vector<std::unique_ptr<Range>> ranges_;
  std::uint64_t claims_{0};
  std::uint64_t requeues_{0};
  std::vector<ReferenceQueue::Fired> log_;
};

/// Which operations a differential run draws from.
enum class Mix {
  kHeap,   ///< heap events and timers only
  kLanes,  ///< plus periodic lane timers and raw lane events
  kMuted,  ///< plus muting and unmuting the lane timers
  kReserved,  ///< plus reserving seqs and later queueing or dropping them
  kRanges,    ///< plus reserved ranges fired from one event that claims
};

/// One seeded run of random operations; stops at the first divergence.
/// From kLanes on, three periodic timers (two sharing the 3 ms lane, one
/// on 5 ms) re-arm through lanes, raw events also go through lanes (0, 3
/// and 5 ms), and five more operations join the mix: arming a lane timer
/// through its lane, re-arming it with schedule_at to a later time, the
/// same time or an earlier one, cancelling it, scheduling a raw lane
/// event, and run_until landing exactly on a lane timer's due time (a
/// muted one's too). kMuted adds muting and unmuting a lane timer.
/// kReserved adds reserving a seq (the reference takes its next seq too,
/// and both must agree) and, later, either queueing a raw event at an
/// outstanding reserved key or dropping the reservation. Each mix keeps
/// the draws of the one before it. Adds the ticks the lane timers skipped
/// while muted to `*muted_ticks`, and the raw events queued at reserved
/// keys to `*reserved_events`, when they are given. kRanges adds
/// reserving a range of 1–6 keys with random delays, fired from one event
/// that claims each next key when allowed and re-queues itself at it
/// otherwise (the reference schedules each key alone), and run_until
/// landing on a range key with another key of its range still behind it.
/// The keys claimed inline and the re-queues add to `*ranges`.
struct RangeCounts {
  std::uint64_t claims{0};
  std::uint64_t requeues{0};
};
void run_differential(std::uint64_t seed, Mix mix, std::uint64_t* muted_ticks = nullptr,
                      std::uint64_t* reserved_events = nullptr,
                      RangeCounts* ranges = nullptr) {
  constexpr int kHeapTimers = 4;
  const bool lanes = mix != Mix::kHeap;
  const std::vector<Time> lane_periods =
      lanes ? std::vector<Time>{3_ms, 3_ms, 5_ms} : std::vector<Time>{};
  const std::vector<Time> raw_lane_delays{0_ms, 3_ms, 5_ms};
  const int timers = kHeapTimers + static_cast<int>(lane_periods.size());
  constexpr int kSteps = 300;
  Rng rng{seed};
  ReferenceQueue ref;
  RealQueue real{kHeapTimers, lane_periods};
  Scheduler& s = real.sched();
  for (int k = kHeapTimers; k < timers; ++k) {
    ref.set_period(k, lane_periods[static_cast<std::size_t>(k - kHeapTimers)]);
  }
  int raw_events = 0;
  std::vector<std::uint64_t> reserved;  // seqs reserved and not yet used
  std::size_t checked = 0;  // firings already compared
  // A coarse 1 ms grid makes same-time ties, where only seq orders events.
  const auto ms = [&](std::int64_t lo, std::int64_t hi) {
    return Time::milliseconds(rng.uniform_int(lo, hi));
  };
  const auto pick = [&](int n) { return static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n))); };
  const auto lane_timer = [&] { return kHeapTimers + pick(timers - kHeapTimers); };
  const auto random_rearm = [&] {
    if (!rng.chance(0.5)) return Rearm{};
    const int k = pick(timers);
    if (k >= kHeapTimers) return Rearm{k, lane_periods[static_cast<std::size_t>(k - kHeapTimers)]};
    return Rearm{k, ms(0, 6)};
  };
  // Re-arms timer k to a time drawn as the heap-timer operation draws it.
  const auto rearm_at = [&](int k) {
    Time at = s.now() + ms(0, 6);
    if (const Time* due = ref.timer_expiry(k)) {
      // Later, the same time, or earlier (never before now()).
      const std::uint64_t shape = rng.uniform_int(std::uint64_t{3});
      if (shape == 0) at = *due + ms(1, 5);
      if (shape == 1) at = *due;
      if (shape == 2) at = std::max(s.now(), *due - ms(1, 5));
    }
    return at;
  };
  const std::uint64_t ops = mix == Mix::kHeap    ? 100
                           : mix == Mix::kLanes ? 140
                           : mix == Mix::kMuted ? 160
                           : mix == Mix::kReserved ? 180
                                                   : 200;

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const std::uint64_t op = rng.uniform_int(ops);
    if (op < 25) {
      const Time at = s.now() + ms(0, 6);
      const Rearm then = random_rearm();
      ref.schedule(raw_events, at, then);
      real.schedule(raw_events, at, then);
      ++raw_events;
    } else if (op < 35) {
      if (raw_events == 0) continue;
      const int tag = pick(raw_events);
      if (real.is_range_key(tag)) continue;  // deliveries are never cancelled
      ref.cancel(tag);
      real.cancel(tag);
    } else if (op < 65) {
      const int k = pick(kHeapTimers);
      const Time at = rearm_at(k);
      const Rearm then = random_rearm();
      ref.arm_timer(k, at, then);
      real.arm_timer(k, at, then);
    } else if (op < 72) {
      const int k = pick(kHeapTimers);
      ref.cancel_timer(k);
      real.cancel_timer(k);
    } else if (op < 88) {
      const Time until = s.now() + ms(0, 4);
      ref.run_until(until);
      s.run_until(until);
    } else if (op < 100) {
      const std::uint64_t k = rng.uniform_int(std::uint64_t{6});
      ref.run(k);
      s.run(k);
    } else if (op < 110) {
      const int k = lane_timer();
      ref.arm_timer(k, s.now() + lane_periods[static_cast<std::size_t>(k - kHeapTimers)], Rearm{},
                    /*through_lane=*/true);
      real.arm_lane_timer(k);
    } else if (op < 118) {
      const int k = lane_timer();
      const Time at = rearm_at(k);
      ref.arm_timer(k, at, Rearm{});
      real.arm_timer(k, at, Rearm{});
    } else if (op < 124) {
      const int k = lane_timer();
      ref.cancel_timer(k);
      real.cancel_timer(k);
    } else if (op < 132) {
      const std::size_t i = static_cast<std::size_t>(pick(static_cast<int>(raw_lane_delays.size())));
      const Rearm then = random_rearm();
      ref.schedule(raw_events, s.now() + raw_lane_delays[i], then);
      real.schedule_lane(raw_events, s.lane(raw_lane_delays[i]), then);
      ++raw_events;
    } else if (op < 140) {
      const Time* due = ref.timer_expiry(lane_timer());
      const Time until = due != nullptr ? *due : s.now();
      ref.run_until(until);
      s.run_until(until);
    } else if (op < 152) {
      const int k = lane_timer();
      ASSERT_EQ(real.timer(k).mute(), ref.mute(k)) << "mute timer " << k;
    } else if (op < 160) {
      const int k = lane_timer();
      ASSERT_EQ(real.timer(k).unmute(), ref.unmute(k)) << "unmute timer " << k;
    } else if (op < 170) {
      reserved.push_back(s.reserve_seq());
      ASSERT_EQ(reserved.back(), ref.reserve());
    } else if (op < 180) {
      if (reserved.empty()) continue;
      const std::size_t i = static_cast<std::size_t>(pick(static_cast<int>(reserved.size())));
      const std::uint64_t seq = reserved[i];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
      if (rng.chance(0.25)) continue;  // dropped: the seq stays unused
      const Time at = s.now() + ms(0, 6);
      const Rearm then = random_rearm();
      ref.schedule_at_key(raw_events, at, seq, then);
      real.schedule_reserved(raw_events, at, seq, then);
      ++raw_events;
      if (reserved_events != nullptr) ++*reserved_events;
    } else if (op < 192) {
      const std::uint64_t k = 1 + rng.uniform_int(std::uint64_t{6});
      const std::uint64_t first = s.reserve_seqs(k);
      std::vector<RealQueue::RangeKey> keys;
      for (std::uint64_t i = 0; i < k; ++i) {
        ASSERT_EQ(first + i, ref.reserve());
        keys.push_back({raw_events, s.now() + ms(0, 4), first + i, random_rearm()});
        ref.schedule_at_key(raw_events, keys.back().at, keys.back().seq, keys.back().then);
        ++raw_events;
      }
      real.schedule_range(std::move(keys));
    } else {
      const RealQueue::RangeKey* key = real.range_key_before_another();
      const Time until = key != nullptr ? key->at : s.now();
      ref.run_until(until);
      s.run_until(until);
    }

    ASSERT_EQ(real.log().size(), ref.log().size());
    for (; checked < ref.log().size(); ++checked) {
      const auto& got = real.log()[checked];
      const auto& want = ref.log()[checked];
      if (!(got == want)) {
        FAIL() << "firing " << checked << ": tag " << got.tag << " at " << got.at.to_string()
               << ", reference tag " << want.tag << " at " << want.at.to_string();
      }
    }
    ASSERT_EQ(s.now(), ref.now());
    ASSERT_EQ(s.executed_count(), ref.executed());
    ASSERT_EQ(s.pending_count() + real.range_backlog(), ref.pending_count());
    ASSERT_GE(s.queued_entries(), s.pending_count());
    for (int k = 0; k < timers; ++k) {
      const Time* due = ref.timer_expiry(k);
      Timer& t = real.timer(k);
      ASSERT_EQ(t.pending(), due != nullptr) << "timer " << k;
      const bool muted = k >= kHeapTimers && ref.periodic_state(k).muted;
      if (due != nullptr && !muted) {
        ASSERT_EQ(t.expires_at(), *due) << "timer " << k;
      }
      if (k < kHeapTimers) continue;
      const ReferenceQueue::Periodic& p = ref.periodic_state(k);
      ASSERT_EQ(t.muted(), p.muted) << "timer " << k;
      ASSERT_EQ(t.muted_ticks(), p.ticks) << "timer " << k;
      ASSERT_EQ(real.folded(k), p.folded) << "timer " << k;
    }
    for (int tag = 0; tag < raw_events; ++tag) {
      if (real.is_pending(tag) != ref.is_pending(tag)) {
        FAIL() << "raw event " << tag;
      }
    }
  }
  for (int k = kHeapTimers; muted_ticks != nullptr && k < timers; ++k) {
    *muted_ticks += ref.periodic_state(k).folded + ref.periodic_state(k).ticks;
  }
  if (ranges != nullptr) {
    ranges->claims += real.claims();
    ranges->requeues += real.requeues();
  }
}

TEST(SchedulerDifferential, MatchesCancelAndPushReference) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, Mix::kHeap);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDifferential, LanesMatchCancelAndPushReference) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, Mix::kLanes);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDifferential, MutedLanesMatchCancelAndPushReference) {
  std::uint64_t muted_ticks = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, Mix::kMuted, &muted_ticks);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The mix must really mute: thousands of skipped ticks, not a handful.
  EXPECT_GT(muted_ticks, 1000u);
}

TEST(SchedulerDifferential, ReservedKeysMatchExplicitKeyReference) {
  std::uint64_t muted_ticks = 0;
  std::uint64_t reserved_events = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, Mix::kReserved, &muted_ticks, &reserved_events);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every kind of operation must really run.
  EXPECT_GT(muted_ticks, 1000u);
  EXPECT_GT(reserved_events, 1000u);
}

TEST(SchedulerDifferential, ClaimedRangesMatchOneEventPerKeyReference) {
  std::uint64_t muted_ticks = 0;
  std::uint64_t reserved_events = 0;
  RangeCounts ranges;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, Mix::kRanges, &muted_ticks, &reserved_events, &ranges);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every kind of operation must really run, and range keys must be both
  // claimed inline and re-queued.
  EXPECT_GT(muted_ticks, 1000u);
  EXPECT_GT(reserved_events, 1000u);
  EXPECT_GT(ranges.claims, 1000u);
  EXPECT_GT(ranges.requeues, 1000u);
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
