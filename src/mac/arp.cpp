#include "mac/arp.hpp"

#include <stdexcept>

namespace eblnet::mac {

ArpLayer::ArpLayer(net::Env& env, std::unique_ptr<net::MacLayer> inner, ArpParams params)
    : env_{env}, inner_{std::move(inner)}, params_{params} {
  if (!inner_) throw std::invalid_argument{"ArpLayer: inner MAC required"};
  inner_->set_rx_callback([this](net::Packet&& p) { on_rx(std::move(p)); });
}

void ArpLayer::enqueue(net::Packet p) {
  if (!p.mac) p.mac.emplace();
  const net::NodeId dst = p.mac->dst;
  // Broadcasts and already-resolved neighbours go straight down.
  if (dst == net::kBroadcastAddress || resolved_.contains(dst)) {
    inner_->enqueue(std::move(p));
    return;
  }
  Pending& pend = pending_[dst];
  if (pend.held.size() >= params_.hold_per_destination) {
    // NS-2 semantics: the newest packet displaces the held one.
    ++held_drops_;
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address(), pend.held.front(),
               "ARP");
    pend.held.pop_front();
  }
  pend.held.push_back(std::move(p));
  if (!pend.timer) {
    send_request(dst);
    pend.timer = std::make_unique<sim::Timer>(env_.scheduler(),
                                              [this, dst] { on_retry_timeout(dst); });
    pend.timer->schedule_in(params_.retry_interval);
  }
}

void ArpLayer::set_tx_fail_callback(TxFailCallback cb) {
  // Wrap so ARP's own frames never reach the routing agent's handler, and
  // a failed neighbour becomes unresolved again.
  inner_->set_tx_fail_callback([this, cb = std::move(cb)](const net::Packet& p) {
    if (p.type == net::PacketType::kArpReply) return;
    if (p.mac) resolved_.erase(p.mac->dst);
    if (cb) cb(p);
  });
}

std::vector<net::Packet> ArpLayer::flush_next_hop(net::NodeId next_hop) {
  std::vector<net::Packet> out = inner_->flush_next_hop(next_hop);
  const auto it = pending_.find(next_hop);
  if (it != pending_.end()) {
    for (auto& p : it->second.held) out.push_back(std::move(p));
    pending_.erase(it);
  }
  return out;
}

void ArpLayer::on_rx(net::Packet&& p) {
  // Hearing a frame from a node proves its reachability (optional; ARP
  // replies always resolve).
  if (p.prev_hop != net::kBroadcastAddress &&
      (params_.passive_learning || p.type == net::PacketType::kArpReply)) {
    resolved_.insert(p.prev_hop);
  }

  if (p.type == net::PacketType::kArpRequest) {
    // The request's target rides in app_seq (flat address space).
    if (static_cast<net::NodeId>(p.app_seq) == address()) {
      ++replies_sent_;
      inner_->enqueue(make_arp(net::PacketType::kArpReply, p.prev_hop));
    }
    return;
  }
  if (p.type == net::PacketType::kArpReply) {
    const net::NodeId who = p.prev_hop;
    const auto it = pending_.find(who);
    if (it != pending_.end()) {
      auto held = std::move(it->second.held);
      pending_.erase(it);
      for (auto& q : held) inner_->enqueue(std::move(q));
    }
    return;
  }
  if (rx_cb_) rx_cb_(std::move(p));
}

void ArpLayer::send_request(net::NodeId dst) {
  ++requests_sent_;
  net::Packet req = make_arp(net::PacketType::kArpRequest, net::kBroadcastAddress);
  req.app_seq = dst;  // who we are looking for
  inner_->enqueue(std::move(req));
}

void ArpLayer::on_retry_timeout(net::NodeId dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  if (pend.retries >= params_.max_retries) {
    for (const auto& p : pend.held)
      env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address(), p, "ARP");
    held_drops_ += pend.held.size();
    pending_.erase(it);
    return;
  }
  ++pend.retries;
  send_request(dst);
  pend.timer->schedule_in(params_.retry_interval);
}

net::Packet ArpLayer::make_arp(net::PacketType type, net::NodeId dst) {
  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = type;
  p.payload_bytes =
      type == net::PacketType::kArpRequest ? params_.request_bytes : params_.reply_bytes;
  p.created = env_.now();
  p.mac.emplace();
  p.mac->src = address();
  p.mac->dst = dst;
  return p;
}

}  // namespace eblnet::mac
