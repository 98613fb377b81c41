#include "routing/dsdv.hpp"

#include <stdexcept>

namespace eblnet::routing {

Dsdv::Dsdv(net::Env& env, net::NodeId self, DsdvParams params)
    : env_{env},
      self_{self},
      params_{params},
      periodic_timer_{env.scheduler(), [this] { on_periodic(); }},
      triggered_timer_{env.scheduler(), [this] { send_triggered_update(); }} {
  // A zero period re-arms on_periodic() at now() forever.
  if (params_.periodic_update_interval <= sim::Time::zero())
    throw std::invalid_argument{"Dsdv: periodic_update_interval must be > 0"};
  periodic_lane_ = env.scheduler().lane(params_.periodic_update_interval);
  // Own entry: metric 0, always-fresh even seqno.
  table_[self_] = Entry{self_, own_seqno_, 0, env_.now()};
  // Desynchronised start so co-located nodes don't dump simultaneously.
  periodic_timer_.schedule_in(
      env_.rng().uniform_time(sim::Time::zero(), params_.periodic_update_interval));
}

void Dsdv::attach_mac(net::MacLayer* mac) {
  if (mac == nullptr) throw std::invalid_argument{"Dsdv: null MAC"};
  mac_ = mac;
  mac_->set_tx_fail_callback([this](const net::Packet& p) { on_tx_fail(p); });
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Dsdv::route_output(net::Packet p) {
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);
  forward_data(std::move(p));
}

void Dsdv::route_input(net::Packet&& p) {
  if (p.dsdv) {
    handle_update(p);
    return;
  }
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
  ++stats_.data_forwarded;
  forward_data(std::move(p));
}

void Dsdv::forward_data(net::Packet p) {
  if (p.ip->dst == net::kBroadcastAddress) {
    if (!p.mac) p.mac.emplace();
    p.mac->dst = net::kBroadcastAddress;
    mac_->enqueue(std::move(p));
    return;
  }
  const Entry* e = route(p.ip->dst);
  if (e == nullptr) {
    ++stats_.data_no_route_dropped;
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "NRTE");
    return;
  }
  if (!p.mac) p.mac.emplace();
  p.mac->dst = e->next_hop;
  mac_->enqueue(std::move(p));
}

const Dsdv::Entry* Dsdv::route(net::NodeId dst) const {
  const auto it = table_.find(dst);
  if (it == table_.end()) return nullptr;
  const Entry& e = it->second;
  if (e.metric == kInfinity) return nullptr;
  if (dst != self_ && env_.now() - e.updated > params_.route_lifetime) return nullptr;
  return &e;
}

bool Dsdv::has_route(net::NodeId dst) const { return route(dst) != nullptr; }

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

void Dsdv::on_periodic() {
  periodic_timer_.schedule_in(periodic_lane_);
  send_full_update();
}

void Dsdv::send_full_update() {
  own_seqno_ += 2;  // even: destination alive
  table_[self_] = Entry{self_, own_seqno_, 0, env_.now()};
  ++stats_.periodic_updates_sent;
  broadcast_update(/*full=*/true);
}

void Dsdv::send_triggered_update() {
  if (!dirty_) return;
  ++stats_.triggered_updates_sent;
  broadcast_update(/*full=*/true);  // simplified: triggered dumps are full too
}

void Dsdv::broadcast_update(bool /*full*/) {
  dirty_ = false;
  last_triggered_ = env_.now();

  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = net::PacketType::kDsdvUpdate;
  p.created = env_.now();
  p.ip.emplace();
  p.ip->src = self_;
  p.ip->dst = net::kBroadcastAddress;
  p.ip->ttl = 1;
  net::DsdvUpdateHeader h;
  h.routes.reserve(table_.size());
  for (const auto& [dst, e] : table_) {
    h.routes.push_back({dst, e.seqno, e.metric});
  }
  p.dsdv = std::move(h);
  p.mac.emplace();
  p.mac->dst = net::kBroadcastAddress;
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);

  const sim::Time jitter =
      env_.rng().uniform_time(sim::Time::zero(), params_.broadcast_jitter);
  // Park the packet in the pool while it waits out the jitter: the
  // capture is a 16-byte handle, not a by-value Packet.
  env_.scheduler().schedule_in(
      jitter, [this, h = env_.packet_pool().adopt(std::move(p))]() mutable {
        mac_->enqueue(std::move(*h));
        h.reset();
      });
}

void Dsdv::handle_update(const net::Packet& p) {
  ++stats_.updates_received;
  const net::NodeId from = p.prev_hop;
  if (from == net::kBroadcastAddress || from == self_) return;
  bool changed = false;

  for (const auto& adv : p.dsdv->routes) {
    if (adv.dst == self_) continue;  // we know our own route best
    const std::uint16_t metric =
        adv.metric == kInfinity ? kInfinity : static_cast<std::uint16_t>(adv.metric + 1);
    auto it = table_.find(adv.dst);
    if (it == table_.end()) {
      if (metric == kInfinity) continue;  // don't learn dead routes
      table_[adv.dst] = Entry{from, adv.seqno, metric, env_.now()};
      changed = true;
      continue;
    }
    Entry& e = it->second;
    const bool newer = static_cast<std::int32_t>(adv.seqno - e.seqno) > 0;
    const bool same_but_better = adv.seqno == e.seqno && metric < e.metric;
    if (newer || same_but_better) {
      // An odd (broken) advertisement only matters if it comes from our
      // current next hop or carries a strictly newer seqno.
      if (metric != kInfinity || newer) {
        const bool was_alive = e.metric != kInfinity;
        e = Entry{from, adv.seqno, metric, env_.now()};
        if (metric == kInfinity && was_alive) ++stats_.routes_broken;
        changed = true;
      }
    } else if (adv.seqno == e.seqno && e.next_hop == from && metric != e.metric) {
      // Same route through the same neighbour changed length.
      e.metric = metric;
      e.updated = env_.now();
      changed = true;
    } else if (e.next_hop == from && !newer && metric == e.metric && metric != kInfinity) {
      e.updated = env_.now();  // refresh
    }
  }

  if (changed) {
    dirty_ = true;
    const sim::Time earliest = last_triggered_ + params_.min_triggered_gap;
    const sim::Time at = earliest > env_.now() ? earliest : env_.now();
    if (!triggered_timer_.pending() || triggered_timer_.expires_at() > at)
      triggered_timer_.schedule_at(at);
  }
}

// ---------------------------------------------------------------------------
// Link failure
// ---------------------------------------------------------------------------

void Dsdv::on_tx_fail(const net::Packet& p) {
  if (!p.mac) return;
  mark_broken_via(p.mac->dst);
}

void Dsdv::mark_broken_via(net::NodeId next_hop) {
  bool changed = false;
  for (auto& [dst, e] : table_) {
    if (dst == self_ || e.next_hop != next_hop || e.metric == kInfinity) continue;
    e.metric = kInfinity;
    e.seqno += 1;  // odd: broken, owned by the detecting node
    e.updated = env_.now();
    ++stats_.routes_broken;
    changed = true;
    if (mac_ != nullptr) {
      for (auto& q : mac_->flush_next_hop(next_hop))
        env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, self_, q, "LNK");
    }
  }
  if (changed) {
    dirty_ = true;
    triggered_timer_.schedule_in(sim::Time::zero());
  }
}

}  // namespace eblnet::routing
