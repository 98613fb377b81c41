#pragma once

#include <unordered_map>

#include "net/env.hpp"
#include "net/layers.hpp"

namespace eblnet::routing {

/// Baseline routing agent with operator-installed routes and no control
/// traffic. Used by benches to isolate AODV's route-discovery cost, and
/// by unit tests that need a predictable forwarding plane.
class StaticRouting final : public net::RoutingAgent {
 public:
  /// When `direct_by_default` is true, destinations without an explicit
  /// route are assumed to be one radio hop away (handy for single-hop
  /// test topologies).
  StaticRouting(net::Env& env, net::NodeId self, bool direct_by_default = false)
      : env_{env}, self_{self}, direct_by_default_{direct_by_default} {}

  void add_route(net::NodeId dst, net::NodeId next_hop) { routes_[dst] = next_hop; }

  void route_output(net::Packet p) override;
  void route_input(net::Packet&& p) override;
  void set_deliver_callback(DeliverCallback cb) override { deliver_ = std::move(cb); }
  void attach_mac(net::MacLayer* mac) override {
    mac_ = mac;
    // Claim the failure callback too: a previously-attached agent must not
    // keep receiving (dangling) link-failure reports.
    mac_->set_tx_fail_callback([this](const net::Packet& p) {
      env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "LNK");
    });
  }

 private:
  void forward(net::Packet p);

  net::Env& env_;
  net::NodeId self_;
  bool direct_by_default_;
  std::unordered_map<net::NodeId, net::NodeId> routes_;
  DeliverCallback deliver_;
  net::MacLayer* mac_{nullptr};
};

}  // namespace eblnet::routing
