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
  s.key_at = at;
  s.key_seq = next_seq_++;
  s.cb = std::move(cb);
  heap_.push_back(Entry{at, s.key_seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return make_id(slot, s.gen);
}

void Scheduler::cancel(EventId id) {
  Slot* s = const_cast<Slot*>(resolve(id));
  if (s == nullptr || s->key_seq == 0) return;
  s->key_seq = 0;
  // Release the capture now (it may own pooled packets); the heap entry
  // stays behind as a tombstone and is discarded when it reaches the top.
  s->cb.reset();
  --live_;
}

bool Scheduler::postpone(EventId id, Time at) {
  Slot* s = const_cast<Slot*>(resolve(id));
  if (s == nullptr || s->key_seq == 0 || at < s->key_at) return false;
  // The heap entry keeps its old key, which is earlier than this one, so
  // it surfaces before the event is due; drop_or_rekey_top moves it then.
  s->key_at = at;
  s->key_seq = next_seq_++;
  return true;
}

bool Scheduler::is_pending(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key_seq != 0;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.in_use = false;
  s.key_seq = 0;
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

void Scheduler::drop_or_rekey_top() {
  const Slot& s = slots_[heap_.front().slot];
  if (s.key_seq == 0) {
    release_slot(pop_top().slot);
    return;
  }
  // Postponed: give the top its live key and sift it down from the root.
  const Entry moving{s.key_at, s.key_seq, heap_.front().slot};
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(moving, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moving;
}

bool Scheduler::pop_next(Entry& out, Callback& cb) {
  while (!heap_.empty()) {
    if (heap_.front().seq != slots_[heap_.front().slot].key_seq) {
      drop_or_rekey_top();
      continue;
    }
    out = pop_top();
    // Move the callback to the caller's storage before releasing: the
    // callback may schedule new events, which can recycle (or grow) the
    // slot table.
    cb = std::move(slots_[out.slot].cb);
    release_slot(out.slot);
    --live_;
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    // Clear cancelled and postponed entries off the top so the time peek
    // below sees the next event that will actually fire.
    if (heap_.front().seq != slots_[heap_.front().slot].key_seq) {
      drop_or_rekey_top();
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
