#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace eblnet::mac {

/// Receive-side duplicate filter of the 802.11 DCF and EDCA MACs: the
/// last kWindow distinct frame uids a station accepted.
///
/// A retransmitted frame whose ACK was lost arrives again with the same
/// uid; the MAC re-ACKs it but must not deliver it twice. Membership is
/// an unordered_set; eviction order is a flat FIFO ring over the same
/// uids. The ring grows with occupancy (std::vector doubling) until it
/// holds kWindow uids and then overwrites its oldest entry in place, so
/// a station that never receives unicast data allocates nothing.
class UidHistory {
 public:
  static constexpr std::size_t kWindow = 1024;

  /// True if `uid` is among the last kWindow distinct uids recorded;
  /// otherwise records it (evicting the oldest once full) and returns false.
  bool seen_or_record(std::uint64_t uid) {
    if (members_.contains(uid)) return true;
    members_.insert(uid);
    if (order_.size() < kWindow) {
      order_.push_back(uid);
    } else {
      members_.erase(order_[oldest_]);
      order_[oldest_] = uid;
      oldest_ = oldest_ + 1 == kWindow ? 0 : oldest_ + 1;
    }
    return false;
  }

 private:
  std::unordered_set<std::uint64_t> members_;
  std::vector<std::uint64_t> order_;  ///< insertion order; order_[oldest_] is evicted next
  std::size_t oldest_{0};
};

}  // namespace eblnet::mac
