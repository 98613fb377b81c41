#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace eblnet::queue {

/// Bounded ring of Packets backing the interface queues (DropTail,
/// PriQueue, RED) and EDCA's internal access-category queues.
///
/// `std::deque<net::Packet>` allocates and frees node blocks as the
/// queue breathes (libstdc++ fits only ~2 Packets per 512-byte block),
/// which keeps the allocator on the per-packet hot path. The ring's slot
/// array only ever grows, so a warm queue enqueues and dequeues without
/// touching the allocator.
///
/// Slots are sized by occupancy, not by the bound: a new ring holds no
/// slots, the first push allocates kInitialSlots, and a push into a full
/// slot array doubles it, clamped to `bound` — so a 50-packet queue that
/// never holds more than a few frames (most vehicles in a fleet) owns a
/// few slots, not 50 preallocated Packets. Growth moves the live
/// elements in logical order; it never changes what the queue holds or
/// the order it yields them.
///
/// Only what the queues need: push at either end, pop_front, indexed
/// access and positional erase (for next-hop removal and PriQueue
/// displacement). The caller enforces the bound — every queue
/// checks-and-drops before pushing.
class PacketRing {
 public:
  static constexpr std::size_t kInitialSlots = 4;

  explicit PacketRing(std::size_t bound) : bound_{bound} {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Most elements the ring may hold.
  std::size_t bound() const noexcept { return bound_; }
  /// Slots allocated so far (0 until the first push, never above bound()).
  std::size_t slots() const noexcept { return slots_.size(); }

  /// Element at logical position `i` (0 = front).
  net::Packet& at(std::size_t i) noexcept { return slots_[index(i)]; }
  const net::Packet& at(std::size_t i) const noexcept { return slots_[index(i)]; }
  const net::Packet& front() const noexcept { return slots_[head_]; }

  void push_back(net::Packet&& p) {
    if (size_ == slots_.size()) grow();
    slots_[index(size_)] = std::move(p);
    ++size_;
  }

  void push_front(net::Packet&& p) {
    if (size_ == slots_.size()) grow();
    head_ = head_ == 0 ? slots_.size() - 1 : head_ - 1;
    slots_[head_] = std::move(p);
    ++size_;
  }

  net::Packet pop_front() noexcept {
    assert(size_ > 0);
    net::Packet p = std::move(slots_[head_]);
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --size_;
    return p;
  }

  /// Remove the element at logical position `i`, shifting later elements
  /// forward (same cost shape as deque::erase).
  void erase(std::size_t i) noexcept {
    assert(i < size_);
    for (std::size_t j = i + 1; j < size_; ++j) at(j - 1) = std::move(at(j));
    --size_;
  }

 private:
  std::size_t index(std::size_t i) const noexcept {
    std::size_t k = head_ + i;
    if (k >= slots_.size()) k -= slots_.size();
    return k;
  }

  /// Reallocate to the next slot count and unwrap: the live elements
  /// move to slots [0, size) in logical order.
  void grow() {
    assert(size_ < bound_);
    const std::size_t n =
        std::min(slots_.empty() ? kInitialSlots : 2 * slots_.size(), bound_);
    std::vector<net::Packet> next(n);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(at(i));
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<net::Packet> slots_;
  std::size_t bound_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace eblnet::queue
