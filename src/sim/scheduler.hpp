#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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
/// its queue and is discarded when it reaches the front. Postponing is
/// lazy too: `postpone` records the event's new (time, seq) key on its
/// slot and leaves the queued entry where it is. The old key is earlier
/// than the new one, so the entry surfaces before the event is due and is
/// re-keyed then; the event fires at the key a cancel + a fresh schedule
/// would have given it.
///
/// Two kinds of queue hold the events. The binary heap takes any time.
/// Beside it sit fixed-delay lanes (`lane()`): FIFOs for events scheduled
/// a fixed delay after the moment they are scheduled, the shape of a
/// periodic timer re-arming itself from its handler. now() never
/// decreases and seq always grows, so a lane is sorted by (time, seq) as
/// it fills, and a push or pop is O(1) instead of a sift. The run loop
/// fires the earlier of the heap top and the earliest lane head under the
/// same (time, seq) order, so an event fires at the same key whichever
/// queue holds it. The earliest lane head's key is cached by value and
/// recomputed only when a head changes, so an event from the heap pays
/// one extra compare. A lane event that is postponed moves to the heap
/// with its live key when its lane entry reaches the front.
///
/// A pending lane event can be muted (`mute()`). When a muted event falls
/// due, the scheduler does what the handler's own lane re-arm would have
/// done and skips the handler: it re-queues the entry one lane delay
/// later under the next seq, counts the firing in executed_count() and in
/// the event's muted-tick count, and leaves the callback unrun. So a
/// handler that takes no seq before that re-arm, and whose other effects
/// its owner can add up later, is muted exactly: every tick keeps its
/// (time, seq) key. The owner calls `unmute()`, which returns the ticks
/// it owes, before it cancels or re-arms the event and before anything
/// reads what the skipped handlers would have changed.
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
/// fallback) and live in the slot table, not the queues: a recycled slot
/// reuses the same callback storage, so a steady-state schedule/fire
/// cycle performs zero allocations. A closure that outgrows
/// `kCallbackCapacity` is a compile error — capture a pooled handle
/// (net::PacketPool) instead of a by-value packet, or raise the constant
/// if the capture is genuinely irreducible.
///
/// Heap and lane entries are 16 bytes: the due time, then one word with
/// the seq in its top 40 bits and the slot in its low 24 (`pack_key`), so
/// an entry's (time, seq) order is one unsigned 128-bit compare. A pop
/// walks the hole at the root down to a leaf, taking the smaller child
/// by arithmetic rather than by a branch, then sifts the heap's last
/// entry up into it; a push sifts up through a hole. A seq reaching 2^40
/// or a slot index reaching 2^24 (events pending at once) throws
/// std::length_error.
///
/// A key can be reserved (`reserve_seq`) and filled later
/// (`schedule_reserved`): the event then fires where one scheduled at the
/// moment of the reservation would have fired. An owner that knows an
/// event it would schedule will change nothing holds the key instead,
/// and queues the event only if it turns out to matter.
///
/// An owner with many events due from one moment (a broadcast's
/// deliveries) reserves a range of keys (`reserve_seqs`), queues one event
/// at the earliest, and from inside it claims each next key (`claim`):
/// the claim succeeds when no queued entry comes before the key and the
/// running loop's bound allows it, and the owner then runs that event's
/// work inline. Otherwise it queues itself at the key. Either way every
/// event runs at its own key and counts in executed_count().
///
/// Clock semantics: `run_until(until)` always leaves `now() == until`
/// (unless the clock is already past it), even when no event fires at or
/// before the bound — callers use it to advance the simulation in fixed
/// steps and rely on the clock landing exactly on the step boundary.
/// Events exactly at `until` do fire (the bound is inclusive).
class Scheduler {
 public:
  /// Inline capture budget for scheduled closures: room for a pooled
  /// packet handle beside a few words (a routing agent's jittered send),
  /// or for a test capturing a std::function or a handful of references.
  /// The channel's fan-out event captures two pointers.
  static constexpr std::size_t kCallbackCapacity = 64;
  using Callback = InlineFunction<kCallbackCapacity>;

  /// Handle to a fixed-delay lane (see lane()), valid only on the
  /// Scheduler that returned it. Four bytes, so an owner keeps one in the
  /// padding beside its flags.
  class Lane {
   public:
    Lane() = default;

   private:
    friend class Scheduler;
    explicit Lane(std::uint32_t index) noexcept : index_{index} {}
    std::uint32_t index_{UINT32_MAX};  ///< default: names no lane
  };

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

  /// The lane for `delay`, created on first use. Throws
  /// std::invalid_argument, naming the delay, when `delay` is negative.
  /// Lanes live as long as the Scheduler (clear() keeps them); a lookup
  /// scans the lanes, so owners call this once and keep the handle.
  Lane lane(Time delay);

  /// The fixed delay of `lane`. Throws std::invalid_argument, naming the
  /// handle, when `lane` names no lane of this Scheduler (a
  /// default-constructed handle, say).
  Time lane_delay(Lane lane) const {
    if (lane.index_ >= lanes_.size()) throw_no_lane(lane);
    return lanes_[lane.index_].delay;
  }

  /// Schedule `cb` to run lane_delay(lane) after now(), through the lane:
  /// the same (time, seq) key as schedule_in(lane_delay(lane), cb), at
  /// O(1) cost instead of a heap sift. Throws as lane_delay does.
  EventId schedule_in(Lane lane, Callback cb);

  /// Take the next seq and queue nothing: (t, seq) is the key an event
  /// scheduled now for time t would get. schedule_reserved queues an
  /// event there later; a seq that is never used leaves a gap, which
  /// orders nothing differently. Throws std::length_error at the seq
  /// limit (pack_key).
  std::uint64_t reserve_seq();

  /// Take `k` consecutive seqs and queue nothing; returns the first. As
  /// reserve_seq, k times over. Throws std::length_error when the last
  /// does not fit (pack_key), before any is taken.
  std::uint64_t reserve_seqs(std::uint64_t k);

  /// Called from inside a firing event, for a reserved key (at, seq) not
  /// before now(): true when no heap or lane entry comes before it and the
  /// running loop may fire it (`at <= until` in run_until, budget left in
  /// run). It then sets now() to `at` and counts one executed event, and
  /// the caller runs that event's work at once. The compare reads the raw
  /// heap top and lane head, so a cancelled or postponed entry there only
  /// makes the answer a conservative false. Outside a run loop: false.
  bool claim(Time at, std::uint64_t seq) noexcept {
    const Entry e{at, seq << kSlotBits};
    if (at > claim_until_ || executed_ >= claim_limit_ || !earlier(e, lane_head_) ||
        (!heap_.empty() && !earlier(e, heap_.front()))) {
      return false;
    }
    now_ = at;
    ++executed_;
    return true;
  }

  /// Schedule `cb` at the reserved key (at, seq), in the heap. Throws
  /// std::invalid_argument when `seq` was never handed out (0, or not yet
  /// taken) or `at` is before now(). Each reserved seq must be used at
  /// most once.
  EventId schedule_reserved(Time at, std::uint64_t seq, Callback cb);

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

  /// Mute a pending lane event (see the class comment): from now on, each
  /// time it falls due it is re-queued one lane delay later and its
  /// callback does not run. Returns false, changing nothing, unless `id`
  /// is pending in a lane and not postponed.
  bool mute(EventId id);

  /// Unmute `id` and return the number of ticks that passed while it was
  /// muted (0 when it was not muted or is not pending). The event stays
  /// pending at its current key, and its next tick runs the callback.
  std::uint64_t unmute(EventId id);

  /// True while `id` is pending and muted.
  bool is_muted(EventId id) const;
  /// Ticks `id` has skipped since it was muted (0 when not pending).
  std::uint64_t muted_ticks(EventId id) const;
  /// Due time of the pending event `id`; Time::max() when not pending.
  Time due_at(EventId id) const;

  /// Run events until the queue is empty or the time of the next event
  /// exceeds `until` (inclusive: events at exactly `until` fire). Always
  /// advances now() to `until` before returning, even when no event fired
  /// at or before the bound. Returns the number of events executed,
  /// claimed ones included.
  std::uint64_t run_until(Time until);

  /// Run all events to quiescence. `max_events` guards against runaway
  /// simulations; claimed events count against it. Returns the number of
  /// events executed, claimed ones included.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Drop every pending event, muted ones included (does not reset the
  /// clock).
  void clear();

  /// The low word of a heap or lane entry: `seq` in the top 40 bits,
  /// `slot` in the low 24. Throws std::length_error when either does not
  /// fit.
  static std::uint64_t pack_key(std::uint64_t seq, std::uint64_t slot) {
    if (seq >= kSeqLimit || slot > kSlotMask) [[unlikely]] throw_key_overflow(seq, slot);
    return seq << kSlotBits | slot;
  }

  std::size_t pending_count() const noexcept { return live_; }
  /// Heap and lane entries, including those of cancelled and postponed
  /// events that have not yet surfaced.
  std::size_t queued_entries() const noexcept;
  std::uint64_t executed_count() const noexcept { return executed_; }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);

  /// A heap or lane entry: the due time and pack_key(seq, slot).
  struct Entry {
    Time at;
    std::uint64_t key;
  };
  static_assert(sizeof(Entry) == 16);
  /// (time, seq) order as one unsigned 128-bit compare. Due times are
  /// never negative (the clock starts at 0 and events are due no earlier
  /// than now()), so the time compares the same as an unsigned word.
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    using Key = unsigned __int128;
    const auto wide = [](const Entry& e) {
      return Key{static_cast<std::uint64_t>(e.at.ns())} << 64 | e.key;
    };
    return wide(a) < wide(b);
  }
  static std::uint32_t slot_of(const Entry& e) noexcept {
    return static_cast<std::uint32_t>(e.key & kSlotMask);
  }
  /// Key of an empty lane: no real event is later, and only one due at
  /// Time::max() under the last seq and slot ties it.
  static constexpr Entry kNoEntry{Time::max(), UINT64_MAX};

  /// One fixed-delay FIFO of heap-style entries: a ring buffer whose
  /// power-of-two capacity doubles only when it is full.
  struct LaneRing {
    explicit LaneRing(Time d) noexcept : delay{d} {}
    Time delay;
    std::unique_ptr<Entry[]> ring;
    std::uint32_t capacity{0};
    std::uint32_t first{0};  ///< ring index of the front entry
    std::uint32_t count{0};
  };
  /// Which queue holds the next event to fire; kMuted is a lane head
  /// whose event is muted.
  enum class Source : std::uint8_t { kNone, kHeap, kLane, kMuted };

  /// Liveness record for one in-flight event. The generation counter
  /// disambiguates recycled slots, so a stale EventId (fired, cancelled,
  /// or cleared long ago) can never alias a newer event. The callback
  /// lives here rather than in the queue entry: sifts move 16-byte
  /// entries, and releasing a slot back to the free list reuses the same
  /// inline callback storage for the next event.
  ///
  /// (key_at, key) is the event's live key, key packed as in its entries.
  /// Its heap or lane entry is current only while the entry's key equals
  /// `key`; key == 0 marks a cancelled event, and any other mismatch a
  /// postponed one.
  struct Slot {
    std::uint32_t gen{0};
    bool in_use{false};
    /// The live key is a lane entry's: set by schedule_in(Lane), cleared
    /// by postpone, whose event finishes its wait in the heap.
    bool in_lane{false};
    bool muted{false};
    Time key_at{};
    std::uint64_t key{0};
    std::uint64_t muted_ticks{0};  ///< ticks skipped since mute()
    Callback cb;
  };
  // The flags and the tick count fill the padding before the
  // 16-byte-aligned callback, so muting costs no slot space.
  static_assert(sizeof(Slot) <= 112);

  static constexpr std::size_t kInitialHeapCapacity = 1024;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
  }
  /// The Slot for `id` iff `id` names its current occupant; else nullptr.
  const Slot* resolve(EventId id) const noexcept;
  Slot* resolve(EventId id) noexcept {
    return const_cast<Slot*>(std::as_const(*this).resolve(id));
  }
  [[noreturn]] static void throw_no_lane(Lane lane);
  [[noreturn]] static void throw_key_overflow(std::uint64_t seq, std::uint64_t slot);

  // The helpers declared inline are defined in scheduler.cpp, the only
  // file that calls them; `inline` lets the compiler fold them into the
  // schedule and run loops.

  /// Takes a free slot for a new event at (at, seq); throws before
  /// anything changes when the key does not fit (pack_key).
  inline std::uint32_t take_slot(Time at, std::uint64_t seq, bool in_lane, Callback&& cb);
  /// Appends `e` to lane `lane`, doubling its ring when full.
  inline void push_lane(std::uint32_t lane, const Entry& e);
  inline void release_slot(std::uint32_t slot);
  /// Adds `e` to the heap: a sift up through a hole.
  inline void push_heap(const Entry& e);
  /// Stores `e` at the hole `hole`, or above it while it is earlier than
  /// the parent.
  inline void sift_up(std::size_t hole, const Entry& e);
  /// Replaces the heap top with the not-earlier `e`: walks the hole down
  /// to a leaf along the smaller children, then sifts `e` up into it.
  inline void replace_top(const Entry& e);
  /// Clears dead entries off the heap top and the earliest lane head
  /// until the next event to fire is live at one of them; kNone when
  /// nothing is pending.
  inline Source next_source();
  /// Pops the next event from `src` (kHeap or kLane), releases its slot
  /// and runs it.
  inline void fire(Source src);
  /// Pops the muted earliest lane head and re-queues it as its handler's
  /// lane re-arm would. Apart from fire(), so that fire() stays small
  /// enough to be inlined into the run loops.
  void requeue_muted();
  /// Removes and returns the heap top (cancelled entries included).
  inline Entry pop_top();
  /// Handles a heap top whose key is not its slot's live key: releases a
  /// cancelled event's slot, or re-keys a postponed event's entry in place.
  void drop_or_rekey_top();
  /// Removes the earliest lane head (lane_head_) from its lane.
  inline void pop_lane_head();
  /// Recomputes lane_head_ as the earliest lane front.
  void refresh_lane_head();
  /// claim()'s bounds for the span of one run loop.
  class ClaimBounds;

  std::vector<Entry> heap_;  ///< binary min-heap under earlier()
  std::vector<LaneRing> lanes_;
  /// The earliest lane front by value (kNoEntry when every lane is empty),
  /// and the lane that holds it.
  Entry lane_head_{kNoEntry};
  std::uint32_t lane_head_lane_{0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_{};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  /// The running loop's bounds for claim(): the latest due time and the
  /// executed_count() it may reach. Outside a loop no claim succeeds.
  Time claim_until_{};
  std::uint64_t claim_limit_{0};
  std::size_t live_{0};  ///< scheduled, not yet fired, not cancelled
};

}  // namespace eblnet::sim
