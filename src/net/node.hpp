#pragma once

#include <map>
#include <memory>

#include "mobility/mobility_model.hpp"
#include "net/env.hpp"
#include "net/layers.hpp"
#include "net/packet.hpp"

namespace eblnet::net {

/// A network node: the hub that wires mobility, MAC (with its interface
/// queue), routing agent and transport endpoints together, mirroring the
/// NS-2 mobile-node stack (agent → routing → ifq → MAC → phy).
///
/// Layer objects are installed by a scenario builder; the Node owns MAC
/// and routing, shares ownership of the mobility model (a Platoon may
/// also hold it), and holds non-owning pointers to port handlers (the
/// transport agents own themselves via the scenario).
class Node {
 public:
  Node(Env& env, NodeId id) : env_{env}, id_{id} {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  Env& env() noexcept { return env_; }

  // --- mobility ---
  void set_mobility(std::shared_ptr<mobility::MobilityModel> m) { mobility_ = std::move(m); }
  mobility::MobilityModel* mobility() const noexcept { return mobility_.get(); }

  /// Position right now; origin when no mobility model is installed.
  mobility::Vec2 position() const {
    return mobility_ ? mobility_->position_at(env_.now()) : mobility::Vec2{};
  }

  // --- layers ---
  /// Install the MAC. Received packets flow to the routing agent.
  void set_mac(std::unique_ptr<MacLayer> mac);

  /// Install the routing agent. Locally-delivered packets flow to the
  /// port demux; the agent is attached to the MAC if one is present.
  void set_routing(std::unique_ptr<RoutingAgent> routing);

  MacLayer* mac() const noexcept { return mac_.get(); }
  RoutingAgent* routing() const noexcept { return routing_.get(); }

  // --- transport ---
  /// Bind `handler` to `port`. Throws if the port is taken.
  void bind_port(Port port, PortHandler* handler);
  void unbind_port(Port port) { ports_.erase(port); }

  /// Entry point for transport agents: send a locally-originated packet.
  /// The IP header must be set; routing takes it from here. While the
  /// node is crashed the packet is swallowed (traced as a "DWN" drop).
  void send(Packet p);

  // --- fault state ---
  /// Crash (`up == false`) or reboot this node: cascades into the MAC
  /// (timers cancelled, interface queue flushed) and the routing agent
  /// (state reset). The phy is powered off separately by the scenario's
  /// fault hook, since the Node does not own it.
  void set_up(bool up);
  bool up() const noexcept { return up_; }

 private:
  void wire();
  void deliver(Packet&& p);

  Env& env_;
  NodeId id_;
  std::shared_ptr<mobility::MobilityModel> mobility_;
  std::unique_ptr<MacLayer> mac_;
  std::unique_ptr<RoutingAgent> routing_;
  std::map<Port, PortHandler*> ports_;
  bool up_{true};
};

}  // namespace eblnet::net
