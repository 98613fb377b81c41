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

std::uint32_t Scheduler::take_slot(Time at, bool in_lane, Callback&& cb) {
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
  s.in_lane = in_lane;
  s.key_at = at;
  s.key_seq = next_seq_++;
  s.cb = std::move(cb);
  ++live_;
  return slot;
}

EventId Scheduler::schedule_at(Time at, Callback cb) {
  if (at < now_) throw std::invalid_argument{"Scheduler: event scheduled in the past"};
  const std::uint32_t slot = take_slot(at, /*in_lane=*/false, std::move(cb));
  const Slot& s = slots_[slot];
  heap_.push_back(Entry{at, s.key_seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(slot, s.gen);
}

Scheduler::Lane Scheduler::lane(Time delay) {
  if (delay.is_negative()) {
    throw std::invalid_argument{"Scheduler: lane delay " + delay.to_string() +
                                " s is negative"};
  }
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay == delay) return Lane{i};
  }
  lanes_.emplace_back(delay);
  return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

EventId Scheduler::schedule_in(Lane lane, Callback cb) {
  assert(lane.index_ < lanes_.size());
  const std::uint32_t slot =
      take_slot(now_ + lanes_[lane.index_].delay, /*in_lane=*/true, std::move(cb));
  const Slot& s = slots_[slot];
  push_lane(lane.index_, Entry{s.key_at, s.key_seq, slot});
  return make_id(slot, s.gen);
}

void Scheduler::push_lane(std::uint32_t lane, const Entry& e) {
  LaneRing& l = lanes_[lane];
  if (l.count == l.capacity) {
    // Full: double the ring, unwrapping it so the front is at index 0.
    const std::uint32_t grown = l.capacity == 0 ? 16 : 2 * l.capacity;
    auto ring = std::make_unique_for_overwrite<Entry[]>(grown);
    for (std::uint32_t i = 0; i < l.count; ++i) {
      ring[i] = l.ring[(l.first + i) & (l.capacity - 1)];
    }
    l.ring = std::move(ring);
    l.capacity = grown;
    l.first = 0;
  }
  l.ring[(l.first + l.count) & (l.capacity - 1)] = e;
  // A push into an empty lane is the only push that moves a head.
  if (l.count++ == 0 && Later{}(lane_head_, e)) {
    lane_head_ = e;
    lane_head_lane_ = lane;
  }
}

void Scheduler::cancel(EventId id) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key_seq == 0) return;
  s->key_seq = 0;
  // Release the capture now (it may own pooled packets); the heap or lane
  // entry stays behind as a tombstone and is discarded at the front.
  s->cb.reset();
  --live_;
}

bool Scheduler::postpone(EventId id, Time at) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key_seq == 0 || at < s->key_at) return false;
  // The queued entry keeps its old key, which is earlier than this one,
  // so it surfaces before the event is due. drop_or_rekey_top re-keys a
  // heap entry then; next_source moves a lane entry to the heap, where
  // no event is muted.
  s->key_at = at;
  s->key_seq = next_seq_++;
  s->in_lane = false;
  s->muted = false;
  return true;
}

bool Scheduler::is_pending(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key_seq != 0;
}

bool Scheduler::mute(EventId id) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key_seq == 0 || !s->in_lane) return false;
  s->muted = true;
  return true;
}

std::uint64_t Scheduler::unmute(EventId id) {
  Slot* s = resolve(id);
  if (s == nullptr) return 0;
  const std::uint64_t ticks = s->muted_ticks;
  s->muted = false;
  s->muted_ticks = 0;
  return ticks;
}

bool Scheduler::is_muted(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key_seq != 0 && s->muted;
}

std::uint64_t Scheduler::muted_ticks(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key_seq != 0 ? s->muted_ticks : 0;
}

Time Scheduler::due_at(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key_seq != 0 ? s->key_at : Time::max();
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.in_use = false;
  s.key_seq = 0;
  s.muted = false;
  s.muted_ticks = 0;
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

void Scheduler::pop_lane_head() {
  LaneRing& l = lanes_[lane_head_lane_];
  l.first = (l.first + 1) & (l.capacity - 1);
  --l.count;
  refresh_lane_head();
}

void Scheduler::refresh_lane_head() {
  lane_head_ = kNoEntry;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const LaneRing& l = lanes_[i];
    if (l.count != 0 && Later{}(lane_head_, l.ring[l.first])) {
      lane_head_ = l.ring[l.first];
      lane_head_lane_ = i;
    }
  }
}

Scheduler::Source Scheduler::next_source() {
  for (;;) {
    if (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (top.seq != slots_[top.slot].key_seq) {
        drop_or_rekey_top();
        continue;
      }
      // The one compare a heap event pays for the lanes.
      if (!Later{}(top, lane_head_)) return Source::kHeap;
    } else if (lane_head_.seq == kNoEntry.seq) {
      return Source::kNone;
    }
    const std::uint32_t slot = lane_head_.slot;
    const Slot& s = slots_[slot];
    if (lane_head_.seq == s.key_seq) return s.muted ? Source::kMuted : Source::kLane;
    // A dead lane head: a cancelled event frees its slot; a postponed
    // one's live key need not fit the lane's order, so it finishes its
    // wait in the heap.
    pop_lane_head();
    if (s.key_seq == 0) {
      release_slot(slot);
    } else {
      heap_.push_back(Entry{s.key_at, s.key_seq, slot});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }
}

void Scheduler::fire(Source src) {
  Entry e;
  if (src == Source::kHeap) {
    e = pop_top();
  } else {
    e = lane_head_;
    pop_lane_head();
  }
  assert(e.at >= now_);
  // Move the callback to the stack before releasing: the callback may
  // schedule new events, which can recycle (or grow) the slot table.
  Callback cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
  --live_;
  now_ = e.at;
  ++executed_;
  cb();
}

void Scheduler::requeue_muted() {
  // The handler's own lane re-arm, without the handler: the entry comes
  // back one lane delay later under the next seq, and the event keeps its
  // slot and id.
  const Entry e = lane_head_;
  const std::uint32_t lane = lane_head_lane_;
  pop_lane_head();
  assert(e.at >= now_);
  Slot& s = slots_[e.slot];
  now_ = e.at;
  ++executed_;
  ++s.muted_ticks;
  s.key_at = now_ + lanes_[lane].delay;
  s.key_seq = next_seq_++;
  push_lane(lane, Entry{s.key_at, s.key_seq, e.slot});
}

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t n = 0;
  for (Source src; (src = next_source()) != Source::kNone; ++n) {
    if ((src == Source::kHeap ? heap_.front().at : lane_head_.at) > until) break;
    if (src == Source::kMuted) {
      requeue_muted();
    } else {
      fire(src);
    }
  }
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  for (Source src; n < max_events && (src = next_source()) != Source::kNone; ++n) {
    if (src == Source::kMuted) {
      requeue_muted();
    } else {
      fire(src);
    }
  }
  return n;
}

void Scheduler::clear() {
  heap_.clear();
  for (LaneRing& l : lanes_) {
    l.first = 0;
    l.count = 0;
  }
  lane_head_ = kNoEntry;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].in_use) release_slot(i);
  }
  live_ = 0;
}

std::size_t Scheduler::queued_entries() const noexcept {
  std::size_t n = heap_.size();
  for (const LaneRing& l : lanes_) n += l.count;
  return n;
}

}  // namespace eblnet::sim
