#include "routing/routing_table.hpp"

namespace eblnet::routing {

RouteEntry& RoutingTable::get_or_create(net::NodeId dst) {
  auto [it, inserted] = entries_.try_emplace(dst);
  if (inserted) it->second.dst = dst;
  return it->second;
}

RouteEntry* RoutingTable::find(net::NodeId dst) {
  const auto it = entries_.find(dst);
  return it == entries_.end() ? nullptr : &it->second;
}

const RouteEntry* RoutingTable::find(net::NodeId dst) const {
  const auto it = entries_.find(dst);
  return it == entries_.end() ? nullptr : &it->second;
}

RouteEntry* RoutingTable::lookup_valid(net::NodeId dst, sim::Time now) {
  RouteEntry* e = find(dst);
  if (e == nullptr || !e->valid) return nullptr;
  if (e->expires <= now) {
    e->valid = false;
    return nullptr;
  }
  return e;
}

std::size_t RoutingTable::purge(sim::Time now) {
  std::size_t n = 0;
  for (auto& [dst, e] : entries_) {
    if (e.valid && e.expires <= now) {
      e.valid = false;
      ++n;
    }
  }
  return n;
}

bool RoutingTable::any_valid() const noexcept {
  for (const auto& [dst, e] : entries_) {
    if (e.valid) return true;
  }
  return false;
}

std::vector<RouteEntry*> RoutingTable::routes_via(net::NodeId next_hop) {
  std::vector<RouteEntry*> out;
  for (auto& [dst, e] : entries_) {
    if (e.valid && e.next_hop == next_hop) out.push_back(&e);
  }
  return out;
}

}  // namespace eblnet::routing
