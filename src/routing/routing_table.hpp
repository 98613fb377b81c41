#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace eblnet::routing {

/// Circular 32-bit sequence-number comparison (RFC 3561 §6.1):
/// returns true when `a` is fresher than `b`.
constexpr bool seqno_newer(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}

/// One AODV forwarding entry.
struct RouteEntry {
  net::NodeId dst{net::kBroadcastAddress};
  std::uint32_t seqno{0};
  bool seqno_valid{false};
  std::uint8_t hop_count{0};
  net::NodeId next_hop{net::kBroadcastAddress};
  sim::Time expires{};
  bool valid{false};
  /// Neighbours that route through us to `dst`; notified via RERR when
  /// the route breaks.
  std::set<net::NodeId> precursors;
};

/// AODV routing table. Entry lifetime is enforced by the owner (Aodv)
/// via `lookup_valid(now)` and `purge(now)` — the table itself holds no
/// timers so it is trivially unit-testable.
class RoutingTable {
 public:
  /// Entry for `dst`, creating an invalid placeholder if absent.
  RouteEntry& get_or_create(net::NodeId dst);

  /// Entry for `dst` or nullptr.
  RouteEntry* find(net::NodeId dst);
  const RouteEntry* find(net::NodeId dst) const;

  /// Valid, unexpired entry for `dst` or nullptr.
  RouteEntry* lookup_valid(net::NodeId dst, sim::Time now);

  /// Invalidate expired entries; returns how many were invalidated.
  std::size_t purge(sim::Time now);

  /// All valid entries whose next hop is `next_hop` (used on link break).
  std::vector<RouteEntry*> routes_via(net::NodeId next_hop);

  /// True if any entry is marked valid, expired or not. Entries are
  /// never erased, so size() does not say this.
  bool any_valid() const noexcept;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Iteration support (tests, diagnostics).
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  std::unordered_map<net::NodeId, RouteEntry> entries_;
};

}  // namespace eblnet::routing
