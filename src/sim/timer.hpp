#pragma once

#include <utility>

#include "sim/scheduler.hpp"

namespace eblnet::sim {

/// A restartable one-shot timer bound to a fixed callback. Owns at most
/// one pending event at a time. Re-arming a pending timer to the same or a
/// later time postpones that event in place (Scheduler::postpone); an
/// earlier re-arm cancels it and schedules a new one. Either way the shot
/// fires at the (time, seq) key a fresh schedule would give it, so event
/// order does not depend on which path ran.
/// Protocol state machines (MAC backoff, TCP RTO, AODV route expiry, ...)
/// are built out of these.
///
/// A timer that re-arms itself with one fixed delay (a CBR tick, a purge
/// or hello period, a sampler) arms through a lane instead:
/// `schedule_in(Scheduler::Lane)` gives the shot the same (time, seq) key
/// as `schedule_in(delay)` with the lane's delay, but the scheduler
/// queues it in O(1) instead of sifting the heap. The owner looks the lane
/// up once (Scheduler::lane) and keeps the four-byte handle itself, so a
/// Timer stays 64 bytes. A timer may mix both forms freely.
///
/// A lane-armed timer can be muted (Scheduler::mute): its handler stops
/// running, and each tick only re-queues the shot one lane delay later
/// and counts itself. pending() stays true. expires_at() is stale while
/// muted and right again after unmute(), which returns the ticks the
/// owner must account for. The owner unmutes before it cancels or
/// re-arms the timer.
///
/// The owner must outlive any pending expiry: cancel in the owner's
/// destructor (or let the Scheduler be destroyed first, which drops all
/// events without running them).
///
/// The handler is stored once in an InlineFunction and *moved* to the
/// stack around each invocation (then moved back), so an expiry performs
/// no allocation — unlike the previous std::function copy-per-fire —
/// while the handler remains free to destroy this Timer mid-call.
///
/// Handler budget: kHandlerCapacity (16) bytes of capture, enough for
/// `[this]` or `[this, id]` — what every protocol timer holds. A node
/// owns over a dozen Timers, so the budget is kept apart from (and much
/// smaller than) the scheduler's 64-byte event callback; a capture that
/// outgrows it is a compile error, not a heap fallback. Whatever else a
/// handler needs belongs in the object `this` points at.
class Timer {
 public:
  static constexpr std::size_t kHandlerCapacity = 16;
  using Callback = InlineFunction<kHandlerCapacity>;

  Timer(Scheduler& sched, Callback on_expire)
      : on_expire_{std::move(on_expire)}, sched_{&sched} {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() {
    cancel();
    if (alive_flag_ != nullptr) *alive_flag_ = false;
  }

  /// (Re)arm the timer to fire `delay` from now.
  void schedule_in(Time delay) { schedule_at(sched_->now() + delay); }

  /// (Re)arm the timer to fire lane_delay(lane) from now, through `lane`.
  /// A pending shot is moved exactly as schedule_at would move it.
  void schedule_in(Scheduler::Lane lane) {
    const Time at = sched_->now() + sched_->lane_delay(lane);
    expires_at_ = at;
    if (sched_->postpone(id_, at)) return;
    cancel();
    id_ = sched_->schedule_in(lane, [this] { fire(); });
  }

  /// (Re)arm the timer to fire at absolute time `at`.
  void schedule_at(Time at) {
    expires_at_ = at;
    if (sched_->postpone(id_, at)) return;
    cancel();
    id_ = sched_->schedule_at(at, [this] { fire(); });
  }

  /// (Re)arm the timer at the reserved key (at, seq) (Scheduler::
  /// reserve_seq, schedule_reserved): the shot fires where an arm at the
  /// moment of the reservation would have put it.
  void schedule_reserved(Time at, std::uint64_t seq) {
    cancel();
    expires_at_ = at;
    id_ = sched_->schedule_reserved(at, seq, [this] { fire(); });
  }

  void cancel() {
    if (id_ != kInvalidEventId) {
      sched_->cancel(id_);
      id_ = kInvalidEventId;
    }
  }

  bool pending() const { return id_ != kInvalidEventId && sched_->is_pending(id_); }

  /// Mute the pending lane shot; false, changing nothing, when the timer
  /// is idle or its shot is not in a lane.
  bool mute() { return sched_->mute(id_); }
  /// Unmute and return the ticks skipped while muted (0 when not muted).
  std::uint64_t unmute() {
    const std::uint64_t ticks = sched_->unmute(id_);
    if (ticks != 0) expires_at_ = sched_->due_at(id_);
    return ticks;
  }
  bool muted() const { return sched_->is_muted(id_); }
  /// Ticks skipped since the timer was muted.
  std::uint64_t muted_ticks() const { return sched_->muted_ticks(id_); }

  /// Expiry time of the currently pending shot (meaningless when idle).
  Time expires_at() const noexcept { return expires_at_; }

 private:
  void fire() {
    id_ = kInvalidEventId;
    // Invoke via the stack: the expiry handler is allowed to destroy this
    // Timer (e.g. a protocol erasing its own state machine), which would
    // otherwise free the executing callable mid-call. The stack-local
    // watches alive_flag_ to know whether `this` survived; only then is
    // the handler moved back (re-arming from inside the handler is fine —
    // schedule_at never touches on_expire_).
    bool alive = true;
    alive_flag_ = &alive;
    Callback fn = std::move(on_expire_);
    fn();
    if (alive) {
      on_expire_ = std::move(fn);
      alive_flag_ = nullptr;
    }
  }

  // The 16-byte-aligned handler leads so the pointer-sized members pack
  // behind it without padding.
  Callback on_expire_;
  Scheduler* sched_;
  EventId id_{kInvalidEventId};
  Time expires_at_{};
  bool* alive_flag_ = nullptr;
};
// A node owns over a dozen Timers; lane handles live in their owners.
static_assert(sizeof(Timer) <= 64);

}  // namespace eblnet::sim
