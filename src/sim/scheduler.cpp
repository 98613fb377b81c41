#include "sim/scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
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

void Scheduler::throw_no_lane(Lane lane) {
  throw std::invalid_argument{"Scheduler: lane handle " + std::to_string(lane.index_) +
                              " names no lane"};
}

void Scheduler::throw_key_overflow(std::uint64_t seq, std::uint64_t slot) {
  throw std::length_error{"Scheduler: seq " + std::to_string(seq) + " or slot " +
                          std::to_string(slot) + " outgrows its 40 or 24 key bits"};
}

std::uint32_t Scheduler::take_slot(Time at, std::uint64_t seq, bool in_lane, Callback&& cb) {
  if (!cb) throw std::invalid_argument{"Scheduler: empty callback"};
  const bool grow = free_slots_.empty();
  const std::size_t slot = grow ? slots_.size() : free_slots_.back();
  const std::uint64_t key = pack_key(seq, slot);
  if (grow) {
    slots_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.in_use = true;
  s.in_lane = in_lane;
  s.key_at = at;
  s.key = key;
  s.cb = std::move(cb);
  ++live_;
  return static_cast<std::uint32_t>(slot);
}

void Scheduler::sift_up(std::size_t hole, const Entry& e) {
  Entry* const h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(e, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

void Scheduler::push_heap(const Entry& e) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, e);
}

void Scheduler::replace_top(const Entry& e) {
  Entry* const h = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  std::size_t child = 1;
  for (; child + 1 < n; child = 2 * hole + 1) {
    // The smaller child, chosen by arithmetic: which one wins is a coin
    // flip the branch predictor cannot learn.
    child += earlier(h[child + 1], h[child]);
    h[hole] = h[child];
    hole = child;
  }
  if (child < n) {  // a lone last child
    h[hole] = h[child];
    hole = child;
  }
  sift_up(hole, e);
}

EventId Scheduler::schedule_at(Time at, Callback cb) {
  if (at < now_) throw std::invalid_argument{"Scheduler: event scheduled in the past"};
  const std::uint32_t slot = take_slot(at, next_seq_, /*in_lane=*/false, std::move(cb));
  ++next_seq_;
  const Slot& s = slots_[slot];
  push_heap(Entry{at, s.key});
  return make_id(slot, s.gen);
}

std::uint64_t Scheduler::reserve_seq() {
  pack_key(next_seq_, 0);  // throws at the seq limit
  return next_seq_++;
}

std::uint64_t Scheduler::reserve_seqs(std::uint64_t k) {
  const std::uint64_t first = next_seq_;
  if (k != 0) pack_key(k < kSeqLimit ? first + k - 1 : kSeqLimit, 0);  // throws at the limit
  next_seq_ += k;
  return first;
}

EventId Scheduler::schedule_reserved(Time at, std::uint64_t seq, Callback cb) {
  if (seq == 0 || seq >= next_seq_) {
    throw std::invalid_argument{"Scheduler: seq " + std::to_string(seq) +
                                " was never handed out"};
  }
  if (at < now_) throw std::invalid_argument{"Scheduler: event scheduled in the past"};
  const std::uint32_t slot = take_slot(at, seq, /*in_lane=*/false, std::move(cb));
  const Slot& s = slots_[slot];
  push_heap(Entry{at, s.key});
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
  const Time at = now_ + lane_delay(lane);
  const std::uint32_t slot = take_slot(at, next_seq_, /*in_lane=*/true, std::move(cb));
  ++next_seq_;
  const Slot& s = slots_[slot];
  push_lane(lane.index_, Entry{at, s.key});
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
  if (l.count++ == 0 && earlier(e, lane_head_)) {
    lane_head_ = e;
    lane_head_lane_ = lane;
  }
}

void Scheduler::cancel(EventId id) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key == 0) return;
  s->key = 0;
  // Release the capture now (it may own pooled packets); the heap or lane
  // entry stays behind as a tombstone and is discarded at the front.
  s->cb.reset();
  --live_;
}

bool Scheduler::postpone(EventId id, Time at) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key == 0 || at < s->key_at) return false;
  // The queued entry keeps its old key, which is earlier than this one,
  // so it surfaces before the event is due. drop_or_rekey_top re-keys a
  // heap entry then; next_source moves a lane entry to the heap, where
  // no event is muted.
  s->key = pack_key(next_seq_, s->key & kSlotMask);
  ++next_seq_;
  s->key_at = at;
  s->in_lane = false;
  s->muted = false;
  return true;
}

bool Scheduler::is_pending(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key != 0;
}

bool Scheduler::mute(EventId id) {
  Slot* s = resolve(id);
  if (s == nullptr || s->key == 0 || !s->in_lane) return false;
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
  return s != nullptr && s->key != 0 && s->muted;
}

std::uint64_t Scheduler::muted_ticks(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key != 0 ? s->muted_ticks : 0;
}

Time Scheduler::due_at(EventId id) const {
  const Slot* s = resolve(id);
  return s != nullptr && s->key != 0 ? s->key_at : Time::max();
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.in_use = false;
  s.key = 0;
  s.muted = false;
  s.muted_ticks = 0;
  s.cb.reset();
  ++s.gen;  // invalidate every EventId handed out for this occupancy
  free_slots_.push_back(slot);
}

Scheduler::Entry Scheduler::pop_top() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) replace_top(last);
  return top;
}

void Scheduler::drop_or_rekey_top() {
  const std::uint32_t slot = slot_of(heap_.front());
  const Slot& s = slots_[slot];
  if (s.key == 0) {
    pop_top();
    release_slot(slot);
    return;
  }
  // Postponed: the top takes its live key, which is later, and sinks.
  replace_top(Entry{s.key_at, s.key});
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
    if (l.count != 0 && earlier(l.ring[l.first], lane_head_)) {
      lane_head_ = l.ring[l.first];
      lane_head_lane_ = i;
    }
  }
}

Scheduler::Source Scheduler::next_source() {
  for (;;) {
    if (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (top.key != slots_[slot_of(top)].key) {
        drop_or_rekey_top();
        continue;
      }
      // The one compare a heap event pays for the lanes.
      if (!earlier(lane_head_, top)) return Source::kHeap;
    } else if (!earlier(lane_head_, kNoEntry)) {
      return Source::kNone;
    }
    const std::uint32_t slot = slot_of(lane_head_);
    const Slot& s = slots_[slot];
    if (lane_head_.key == s.key) return s.muted ? Source::kMuted : Source::kLane;
    // A dead lane head: a cancelled event frees its slot; a postponed
    // one's live key need not fit the lane's order, so it finishes its
    // wait in the heap.
    pop_lane_head();
    if (s.key == 0) {
      release_slot(slot);
    } else {
      push_heap(Entry{s.key_at, s.key});
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
  const std::uint32_t slot = slot_of(e);
  Callback cb = std::move(slots_[slot].cb);
  release_slot(slot);
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
  const std::uint64_t key = pack_key(next_seq_, slot_of(e));
  pop_lane_head();
  assert(e.at >= now_);
  Slot& s = slots_[slot_of(e)];
  now_ = e.at;
  ++executed_;
  ++next_seq_;
  ++s.muted_ticks;
  s.key_at = now_ + lanes_[lane].delay;
  s.key = key;
  push_lane(lane, Entry{s.key_at, key});
}

/// Sets the claim bounds of one run loop and restores the enclosing
/// loop's (none, outside any) when the loop returns.
class Scheduler::ClaimBounds {
 public:
  ClaimBounds(Scheduler& s, Time until, std::uint64_t limit) noexcept
      : s_{s}, until_{s.claim_until_}, limit_{s.claim_limit_} {
    s.claim_until_ = until;
    s.claim_limit_ = limit;
  }
  ~ClaimBounds() {
    s_.claim_until_ = until_;
    s_.claim_limit_ = limit_;
  }
  ClaimBounds(const ClaimBounds&) = delete;
  ClaimBounds& operator=(const ClaimBounds&) = delete;

 private:
  Scheduler& s_;
  Time until_;
  std::uint64_t limit_;
};

std::uint64_t Scheduler::run_until(Time until) {
  const std::uint64_t start = executed_;
  {
    const ClaimBounds bounds{*this, until, UINT64_MAX};
    for (Source src; (src = next_source()) != Source::kNone;) {
      if ((src == Source::kHeap ? heap_.front().at : lane_head_.at) > until) break;
      if (src == Source::kMuted) {
        requeue_muted();
      } else {
        fire(src);
      }
    }
  }
  if (now_ < until) now_ = until;
  return executed_ - start;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  const std::uint64_t start = executed_;
  // Claimed events count against the budget too.
  const std::uint64_t limit = max_events < UINT64_MAX - start ? start + max_events : UINT64_MAX;
  const ClaimBounds bounds{*this, Time::max(), limit};
  for (Source src; executed_ < limit && (src = next_source()) != Source::kNone;) {
    if (src == Source::kMuted) {
      requeue_muted();
    } else {
      fire(src);
    }
  }
  return executed_ - start;
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
