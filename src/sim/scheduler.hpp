#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace eblnet::sim {

/// Handle to a scheduled event; used to cancel it before it fires.
/// Value 0 is reserved as "invalid / never scheduled".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Discrete-event scheduler.
///
/// Events fire in nondecreasing time order; events scheduled for the same
/// instant fire in the order they were scheduled (FIFO tie-break via a
/// monotonically increasing sequence number), which keeps simulations
/// deterministic. Cancellation is O(1) lazy: a cancelled entry stays in
/// the heap and is discarded when it reaches the top. Postponing is lazy
/// too: `postpone` records the event's new (time, seq) key on its slot
/// and leaves the heap entry where it is. The old key is earlier than the
/// new one, so the entry surfaces before the event is due and is re-keyed
/// in place with one sift-down; the event fires at the key a cancel + a
/// fresh schedule would have given it.
///
/// Hot-path design: every simulated packet turns into several schedule/
/// pop pairs, so neither operation hashes. An EventId encodes an index
/// into a slot table plus a generation counter; schedule, cancel,
/// is_pending and the liveness check on pop are all plain array accesses.
/// Cancelled-state bookkeeping is proportional to the (rare) cancels, not
/// to the (ubiquitous) normal events, and the heap's backing vector is
/// reserved up front and recycled, so steady-state scheduling never
/// allocates.
///
/// Callbacks are `InlineFunction` (fixed inline storage, no heap
/// fallback) and live in the slot table, not the heap: heap entries stay
/// a flat 24 bytes through every sift, and a recycled slot reuses the
/// same callback storage, so a steady-state schedule/fire cycle performs
/// zero allocations. A closure that outgrows `kCallbackCapacity` is a
/// compile error — capture a pooled handle (net::PacketPool) instead of
/// a by-value packet, or raise the constant if the capture is genuinely
/// irreducible.
///
/// Clock semantics: `run_until(until)` always leaves `now() == until`
/// (unless the clock is already past it), even when no event fires at or
/// before the bound — callers use it to advance the simulation in fixed
/// steps and rely on the clock landing exactly on the step boundary.
/// Events exactly at `until` do fire (the bound is inclusive).
class Scheduler {
 public:
  /// Inline capture budget for scheduled closures. Sized for the largest
  /// real closure on the hot path — the channel fan-out's
  /// {phy*, PooledPacket, double, Time} capture — with headroom for a
  /// test capturing a std::function or a handful of references.
  static constexpr std::size_t kCallbackCapacity = 64;
  using Callback = InlineFunction<kCallbackCapacity>;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time (the timestamp of the event being executed,
  /// or of the last executed event when idle).
  Time now() const noexcept { return now_; }

  /// Schedule `cb` to run at absolute time `at`. `at` must be >= now().
  EventId schedule_at(Time at, Callback cb);

  /// Schedule `cb` to run `delay` after now(). `delay` must be >= 0.
  EventId schedule_in(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Cancel a pending event. Harmless if the event already fired, was
  /// already cancelled, or `id` is kInvalidEventId.
  void cancel(EventId id);

  /// Move a pending event to the later (or equal) time `at`, keeping its
  /// callback and `id`. The event takes a fresh sequence number, so it
  /// fires exactly where `cancel(id)` followed by `schedule_at(at, cb)`
  /// would put it. Returns false, changing nothing, when `id` is not
  /// pending or `at` is earlier than its current due time.
  bool postpone(EventId id, Time at);

  /// True if `id` refers to an event that is still pending.
  bool is_pending(EventId id) const;

  /// Run events until the queue is empty or the time of the next event
  /// exceeds `until` (inclusive: events at exactly `until` fire). Always
  /// advances now() to `until` before returning, even when no event fired
  /// at or before the bound. Returns the number of events executed.
  std::uint64_t run_until(Time until);

  /// Run all events to quiescence. `max_events` guards against runaway
  /// simulations. Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Drop every pending event (does not reset the clock).
  void clear();

  std::size_t pending_count() const noexcept { return live_; }
  /// Heap entries, including those of cancelled and postponed events that
  /// have not yet surfaced.
  std::size_t queued_entries() const noexcept { return heap_.size(); }
  std::uint64_t executed_count() const noexcept { return executed_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;    ///< global FIFO tie-break (monotonic)
    std::uint32_t slot;   ///< index into slots_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  /// Liveness record for one in-flight event. The generation counter
  /// disambiguates recycled slots, so a stale EventId (fired, cancelled,
  /// or cleared long ago) can never alias a newer event. The callback
  /// lives here rather than in the heap entry: heap sifts move 24-byte
  /// entries, and releasing a slot back to the free list reuses the same
  /// inline callback storage for the next event.
  ///
  /// (key_at, key_seq) is the event's live key. The heap entry is current
  /// only while its seq equals key_seq; key_seq == 0 marks a cancelled
  /// event, and any other mismatch a postponed one.
  struct Slot {
    std::uint32_t gen{0};
    bool in_use{false};
    Time key_at{};
    std::uint64_t key_seq{0};
    Callback cb;
  };
  // The live key does not fit in the padding before the 16-byte-aligned
  // callback, so it costs a full 16 bytes per slot.
  static_assert(sizeof(Slot) <= 112);

  static constexpr std::size_t kInitialHeapCapacity = 1024;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
  }
  /// The Slot for `id` iff `id` names its current occupant; else nullptr.
  const Slot* resolve(EventId id) const noexcept;

  void release_slot(std::uint32_t slot);
  /// Pops the next live entry into `out`, moving its callback out of the
  /// slot into `cb` (the slot is released); false when the queue is empty.
  bool pop_next(Entry& out, Callback& cb);
  /// Removes the heap top (cancelled entries included) into `out`.
  Entry pop_top();
  /// Handles a heap top whose seq is not its slot's key_seq: releases a
  /// cancelled event's slot, or re-keys a postponed event's entry in place.
  void drop_or_rekey_top();

  std::vector<Entry> heap_;  ///< binary heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_{};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  std::size_t live_{0};  ///< scheduled, not yet fired, not cancelled
};

}  // namespace eblnet::sim
