#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace eblnet::sim {

Scheduler::Scheduler() { heap_.reserve(kInitialHeapCapacity); }

const Scheduler::Slot* Scheduler::resolve(EventId id) const noexcept {
  if (id == kInvalidEventId) return nullptr;
  const std::uint64_t index = (id & 0xffff'ffffULL) - 1;
  if (index >= slots_.size()) return nullptr;
  const Slot& s = slots_[index];
  if (!s.in_use || s.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return &s;
}

EventId Scheduler::schedule_at(Time at, Callback cb) {
  if (at < now_) throw std::invalid_argument{"Scheduler: event scheduled in the past"};
  if (!cb) throw std::invalid_argument{"Scheduler: empty callback"};
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.in_use = true;
  s.cancelled = false;
  s.cb = std::move(cb);
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return make_id(slot, s.gen);
}

void Scheduler::cancel(EventId id) {
  Slot* s = const_cast<Slot*>(resolve(id));
  if (s == nullptr || s->cancelled) return;
  s->cancelled = true;
  // Release the capture now (it may own pooled packets); the heap entry
  // stays behind as a tombstone and is discarded when it reaches the top.
  s->cb.reset();
  --live_;
}

bool Scheduler::is_pending(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && !s->cancelled;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.in_use = false;
  s.cancelled = false;
  s.cb.reset();
  ++s.gen;  // invalidate every EventId handed out for this occupancy
  free_slots_.push_back(slot);
}

Scheduler::Entry Scheduler::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Scheduler::pop_next(Entry& out, Callback& cb) {
  while (!heap_.empty()) {
    Entry e = pop_top();
    const bool alive = !slots_[e.slot].cancelled;
    // Move the callback to the caller's storage before releasing: the
    // callback may schedule new events, which can recycle (or grow) the
    // slot table.
    if (alive) cb = std::move(slots_[e.slot].cb);
    release_slot(e.slot);
    if (alive) {
      --live_;
      out = e;
      return true;
    }
  }
  return false;
}

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    // Discard cancelled entries from the top so the time peek below sees
    // the next event that will actually fire.
    if (slots_[heap_.front().slot].cancelled) {
      release_slot(pop_top().slot);
      continue;
    }
    if (heap_.front().at > until) break;
    const Entry e = pop_top();
    Callback cb = std::move(slots_[e.slot].cb);
    release_slot(e.slot);
    --live_;
    now_ = e.at;
    ++executed_;
    ++n;
    cb();
  }
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  Entry e;
  Callback cb;
  while (n < max_events && pop_next(e, cb)) {
    assert(e.at >= now_);
    now_ = e.at;
    ++executed_;
    ++n;
    cb();
    cb.reset();
  }
  return n;
}

void Scheduler::clear() {
  heap_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].in_use) release_slot(i);
  }
  live_ = 0;
}

}  // namespace eblnet::sim
