#include "routing/static_routing.hpp"

#include <stdexcept>

namespace eblnet::routing {

void StaticRouting::route_output(net::Packet p) {
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);
  forward(std::move(p));
}

void StaticRouting::route_input(net::Packet&& p) {
  if (!p.ip) return;
  if (p.ip->dst == self_ || p.ip->dst == net::kBroadcastAddress) {
    if (deliver_) deliver_(std::move(p));
    return;
  }
  if (p.ip->ttl <= 1) {
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "TTL");
    return;
  }
  --p.ip->ttl;
  env_.trace(net::TraceAction::kForward, net::TraceLayer::kRouter, self_, p);
  forward(std::move(p));
}

void StaticRouting::forward(net::Packet p) {
  if (mac_ == nullptr) throw std::logic_error{"StaticRouting: no MAC attached"};
  net::NodeId next_hop;
  if (p.ip->dst == net::kBroadcastAddress) {
    next_hop = net::kBroadcastAddress;
  } else if (const auto it = routes_.find(p.ip->dst); it != routes_.end()) {
    next_hop = it->second;
  } else if (direct_by_default_) {
    next_hop = p.ip->dst;
  } else {
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "NRTE");
    return;
  }
  if (!p.mac) p.mac.emplace();
  p.mac->dst = next_hop;
  mac_->enqueue(std::move(p));
}

}  // namespace eblnet::routing
