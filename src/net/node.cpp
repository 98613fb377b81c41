#include "net/node.hpp"

#include <stdexcept>

namespace eblnet::net {

void Node::set_mac(std::unique_ptr<MacLayer> mac) {
  mac_ = std::move(mac);
  wire();
}

void Node::set_routing(std::unique_ptr<RoutingAgent> routing) {
  routing_ = std::move(routing);
  routing_->set_deliver_callback([this](Packet&& p) { deliver(std::move(p)); });
  wire();
}

void Node::wire() {
  if (mac_ && routing_) {
    mac_->set_rx_callback([this](Packet&& p) { routing_->route_input(std::move(p)); });
    routing_->attach_mac(mac_.get());
  }
}

void Node::bind_port(Port port, PortHandler* handler) {
  if (handler == nullptr) throw std::invalid_argument{"Node: null port handler"};
  const auto [it, inserted] = ports_.emplace(port, handler);
  (void)it;
  if (!inserted) throw std::logic_error{"Node: port already bound"};
}

void Node::send(Packet p) {
  if (!p.ip) throw std::logic_error{"Node::send: packet lacks an IP header"};
  if (!routing_) throw std::logic_error{"Node::send: no routing agent installed"};
  if (!up_) {
    env_.trace(TraceAction::kDrop, TraceLayer::kAgent, id_, p, "DWN");
    env_.metrics().add(id_, sim::Counter::kFaultTxSuppressed);
    return;
  }
  routing_->route_output(std::move(p));
}

void Node::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (mac_) mac_->set_link_up(up);
  if (routing_) routing_->set_node_up(up);
}

void Node::deliver(Packet&& p) {
  Port dport = 0;
  if (p.udp) {
    dport = p.udp->dport;
  } else if (p.tcp) {
    dport = p.tcp->dport;
  } else {
    env_.trace(TraceAction::kDrop, TraceLayer::kAgent, id_, p, "NOPORT");
    return;
  }
  const auto it = ports_.find(dport);
  if (it == ports_.end()) {
    env_.trace(TraceAction::kDrop, TraceLayer::kAgent, id_, p, "NOPORT");
    return;
  }
  it->second->recv(std::move(p));
}

}  // namespace eblnet::net
