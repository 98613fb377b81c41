#include "routing/aodv.hpp"

#include <algorithm>
#include <stdexcept>

namespace eblnet::routing {
namespace {

std::uint64_t cache_key(net::NodeId origin, std::uint32_t id) {
  return (static_cast<std::uint64_t>(origin) << 32) | id;
}

}  // namespace

Aodv::Aodv(net::Env& env, net::NodeId self, AodvParams params)
    : env_{env},
      self_{self},
      params_{params},
      hello_timer_{env.scheduler(), [this] { on_hello_tick(); }},
      purge_timer_{env.scheduler(), [this] { on_purge_tick(); }},
      purge_lane_{env.scheduler().lane(sim::Time::milliseconds(500))} {
  purge_timer_.schedule_in(purge_lane_);
}

void Aodv::attach_mac(net::MacLayer* mac) {
  if (mac == nullptr) throw std::invalid_argument{"Aodv: null MAC"};
  mac_ = mac;
  mac_->set_tx_fail_callback([this](const net::Packet& p) { on_tx_fail(p); });
  if (!mac_->detects_link_failures()) start_hello();
}

void Aodv::set_node_up(bool up) {
  if (!up) {
    // Injected crash: a rebooted router remembers nothing — every route,
    // neighbour, pending discovery and buffered packet is gone, so AODV
    // must re-discover from scratch (the resilience bench measures this).
    table_ = RoutingTable{};
    discoveries_.clear();
    buffer_.clear();
    neighbors_.clear();
    rreq_cache_.clear();
    hello_timer_.cancel();
    reroute_pending_ = false;
    return;
  }
  if (mac_ != nullptr && !mac_->detects_link_failures()) start_hello();
}

void Aodv::note_discovery_completed() {
  if (!reroute_pending_) return;
  reroute_pending_ = false;
  env_.metrics().sample(self_, sim::Gauge::kAodvRerouteSeconds,
                        (env_.now() - link_failed_at_).to_seconds());
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Aodv::route_output(net::Packet p) {
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);
  forward_data(std::move(p));
}

void Aodv::route_input(net::Packet&& p) {
  note_neighbor(p.prev_hop);
  if (p.aodv) {
    switch (p.type) {
      case net::PacketType::kAodvRreq: handle_rreq(std::move(p)); return;
      case net::PacketType::kAodvRrep: handle_rrep(std::move(p)); return;
      case net::PacketType::kAodvRerr: handle_rerr(p); return;
      case net::PacketType::kAodvHello: handle_hello(p); return;
      default: return;
    }
  }
  if (!p.ip) return;
  if (p.ip->dst == self_ || p.ip->dst == net::kBroadcastAddress) {
    // Receiving traffic over a route keeps it (and the upstream hop) alive.
    if (p.ip->src != self_) refresh_route(p.ip->src);
    update_neighbor_route(p.prev_hop);
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

void Aodv::forward_data(net::Packet p) {
  if (p.ip->dst == net::kBroadcastAddress) {
    if (!p.mac) p.mac.emplace();
    p.mac->dst = net::kBroadcastAddress;
    mac_->enqueue(std::move(p));
    return;
  }
  RouteEntry* e = table_.lookup_valid(p.ip->dst, env_.now());
  if (e != nullptr) {
    refresh_route(p.ip->dst);
    update_neighbor_route(e->next_hop);
    send_via(std::move(p), e->next_hop);
    return;
  }
  if (p.ip->src == self_) {
    buffer_and_discover(std::move(p));
    return;
  }
  // Mid-path hole: report back to the source (RFC 3561 §6.11 case ii).
  ++stats_.data_no_route_dropped;
  env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "NRTE");
  RouteEntry& dead = table_.get_or_create(p.ip->dst);
  send_rerr({{p.ip->dst, dead.seqno}});
}

void Aodv::send_via(net::Packet p, net::NodeId next_hop) {
  if (!p.mac) p.mac.emplace();
  p.mac->dst = next_hop;
  mac_->enqueue(std::move(p));
}

void Aodv::buffer_and_discover(net::Packet p) {
  const net::NodeId dst = p.ip->dst;
  purge_timer_.unmute();
  auto& q = buffer_[dst];
  if (q.size() >= params_.buffer_capacity) {
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, q.front().packet, "BUF");
    q.pop_front();
  }
  q.push_back(Buffered{std::move(p), env_.now()});
  if (!discoveries_.contains(dst)) start_discovery(dst);
}

void Aodv::flush_buffer(net::NodeId dst) {
  const auto it = buffer_.find(dst);
  if (it == buffer_.end()) return;
  auto q = std::move(it->second);
  buffer_.erase(it);
  for (auto& b : q) forward_data(std::move(b.packet));
}

void Aodv::drop_buffered(net::NodeId dst, const char* reason) {
  const auto it = buffer_.find(dst);
  if (it == buffer_.end()) return;
  for (const auto& b : it->second)
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, b.packet, reason);
  buffer_.erase(it);
}

// ---------------------------------------------------------------------------
// Route discovery
// ---------------------------------------------------------------------------

void Aodv::start_discovery(net::NodeId dst) {
  ++stats_.discoveries_started;
  env_.metrics().add(self_, sim::Counter::kAodvDiscoveries);
  auto d = std::make_unique<Discovery>(env_.scheduler(),
                                       [this, dst] { on_discovery_timeout(dst); });
  d->retries = 0;
  d->ttl = params_.ttl_start;
  d->started = env_.now();
  Discovery* dp = d.get();
  discoveries_[dst] = std::move(d);
  send_rreq(dst, dp->ttl);
  dp->timer.schedule_in(params_.ring_traversal_time(dp->ttl));
}

void Aodv::send_rreq(net::NodeId dst, unsigned ttl) {
  ++seqno_;  // RFC 3561 §6.3: bump own seqno before originating a RREQ
  ++rreq_id_;
  net::Packet p = make_control(net::PacketType::kAodvRreq, net::kBroadcastAddress,
                               static_cast<std::uint8_t>(ttl));
  net::AodvRreqHeader h;
  h.hop_count = 0;
  h.bcast_id = rreq_id_;
  h.dst = dst;
  const RouteEntry* known = table_.find(dst);
  h.dst_seqno_unknown = known == nullptr || !known->seqno_valid;
  h.dst_seqno = known != nullptr ? known->seqno : 0;
  h.origin = self_;
  h.origin_seqno = seqno_;
  p.aodv = h;
  rreq_seen(self_, rreq_id_);  // never process our own flood
  ++stats_.rreq_sent;
  env_.metrics().add(self_, sim::Counter::kAodvRreqSent);
  env_.metrics().add(self_, sim::Counter::kAodvDiscoveryRounds);
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);
  broadcast_jittered(std::move(p));
}

void Aodv::on_discovery_timeout(net::NodeId dst) {
  const auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  Discovery& d = *it->second;
  if (table_.lookup_valid(dst, env_.now()) != nullptr) {
    env_.metrics().sample(self_, sim::Gauge::kAodvRouteAcquisitionSeconds,
                          (env_.now() - d.started).to_seconds());
    note_discovery_completed();
    discoveries_.erase(it);
    flush_buffer(dst);
    return;
  }
  // Expanding-ring: widen the search until the TTL threshold, then go
  // network-wide; after that, binary-exponential retry backoff.
  if (d.ttl < params_.ttl_threshold) {
    d.ttl = std::min(d.ttl + params_.ttl_increment, params_.ttl_threshold);
    send_rreq(dst, d.ttl);
    d.timer.schedule_in(params_.ring_traversal_time(d.ttl));
    return;
  }
  if (d.retries < params_.rreq_retries) {
    ++d.retries;
    d.ttl = params_.net_diameter;
    send_rreq(dst, d.ttl);
    d.timer.schedule_in(params_.net_traversal_time() * (std::int64_t{1} << d.retries));
    return;
  }
  ++stats_.discoveries_failed;
  env_.metrics().add(self_, sim::Counter::kAodvDiscoveryFailures);
  discoveries_.erase(it);
  drop_buffered(dst, "NRTE");
}

// ---------------------------------------------------------------------------
// Control-plane handlers
// ---------------------------------------------------------------------------

void Aodv::handle_rreq(net::Packet p) {
  auto h = std::get<net::AodvRreqHeader>(*p.aodv);
  if (h.origin == self_) return;
  if (rreq_seen(h.origin, h.bcast_id)) return;

  ++h.hop_count;

  // Reverse route to the originator via whoever handed us the flood.
  RouteEntry& rev = table_.get_or_create(h.origin);
  if (!rev.seqno_valid || seqno_newer(h.origin_seqno, rev.seqno) ||
      (h.origin_seqno == rev.seqno && (!rev.valid || h.hop_count < rev.hop_count))) {
    rev.seqno = h.origin_seqno;
    rev.seqno_valid = true;
    rev.hop_count = h.hop_count;
    rev.next_hop = p.prev_hop;
    rev.valid = true;
    purge_timer_.unmute();
  }
  const sim::Time rev_life = env_.now() + params_.net_traversal_time();
  if (rev.expires < rev_life) rev.expires = rev_life;
  update_neighbor_route(p.prev_hop);

  const bool i_am_target = h.dst == self_;
  RouteEntry* fwd = i_am_target ? nullptr : table_.lookup_valid(h.dst, env_.now());
  const bool can_answer =
      fwd != nullptr && fwd->seqno_valid && (h.dst_seqno_unknown || !seqno_newer(h.dst_seqno, fwd->seqno));

  if (i_am_target || can_answer) {
    net::Packet rep = make_control(net::PacketType::kAodvRrep, h.origin,
                                   static_cast<std::uint8_t>(params_.net_diameter));
    net::AodvRrepHeader rh;
    rh.origin = h.origin;
    rh.dst = h.dst;
    if (i_am_target) {
      // §6.6.1: ensure our seqno is at least the one the RREQ asked about.
      if (!h.dst_seqno_unknown && seqno_newer(h.dst_seqno, seqno_)) seqno_ = h.dst_seqno;
      rh.hop_count = 0;
      rh.dst_seqno = seqno_;
      rh.lifetime = params_.my_route_timeout;
    } else {
      rh.hop_count = fwd->hop_count;
      rh.dst_seqno = fwd->seqno;
      rh.lifetime = fwd->expires - env_.now();
      // The RREP will travel origin-ward via rev.next_hop; remember both
      // directions' precursors (§6.6.2).
      fwd->precursors.insert(rev.next_hop);
      rev.precursors.insert(fwd->next_hop);
    }
    rep.aodv = rh;
    ++stats_.rrep_sent;
    env_.metrics().add(self_, sim::Counter::kAodvRrepSent);
    env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, rep);
    send_via(std::move(rep), rev.next_hop);
    return;
  }

  // Keep flooding while the IP TTL allows.
  if (p.ip->ttl <= 1) return;
  --p.ip->ttl;
  p.aodv = h;
  p.mac.reset();
  ++stats_.rreq_forwarded;
  env_.metrics().add(self_, sim::Counter::kAodvRreqForwarded);
  broadcast_jittered(std::move(p));
}

void Aodv::handle_rrep(net::Packet p) {
  const auto& h = std::get<net::AodvRrepHeader>(*p.aodv);

  // Forward route to the answered destination.
  RouteEntry& e = table_.get_or_create(h.dst);
  const std::uint8_t new_hops = static_cast<std::uint8_t>(h.hop_count + 1);
  const bool fresher = !e.seqno_valid || seqno_newer(h.dst_seqno, e.seqno) ||
                       (h.dst_seqno == e.seqno && (!e.valid || new_hops < e.hop_count));
  if (fresher) {
    e.seqno = h.dst_seqno;
    e.seqno_valid = true;
    e.hop_count = new_hops;
    e.next_hop = p.prev_hop;
    e.valid = true;
    purge_timer_.unmute();
    e.expires = env_.now() + h.lifetime;
  }
  update_neighbor_route(p.prev_hop);

  if (h.origin == self_) {
    const auto it = discoveries_.find(h.dst);
    if (it != discoveries_.end()) {
      env_.metrics().sample(self_, sim::Gauge::kAodvRouteAcquisitionSeconds,
                            (env_.now() - it->second->started).to_seconds());
      note_discovery_completed();
      discoveries_.erase(it);
    }
    flush_buffer(h.dst);
    return;
  }

  // Relay toward the originator along the reverse route.
  RouteEntry* rev = table_.lookup_valid(h.origin, env_.now());
  if (rev == nullptr) {
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, p, "NRTE");
    return;
  }
  if (p.ip->ttl <= 1) return;
  --p.ip->ttl;
  auto fwd_header = std::get<net::AodvRrepHeader>(*p.aodv);
  ++fwd_header.hop_count;
  p.aodv = fwd_header;
  // Precursor bookkeeping for the relayed segment (§6.7).
  e.precursors.insert(rev->next_hop);
  rev->precursors.insert(p.prev_hop);
  p.mac.reset();
  ++stats_.rrep_forwarded;
  env_.metrics().add(self_, sim::Counter::kAodvRrepForwarded);
  send_via(std::move(p), rev->next_hop);
}

void Aodv::handle_rerr(const net::Packet& p) {
  const auto& h = std::get<net::AodvRerrHeader>(*p.aodv);
  std::vector<net::AodvRerrHeader::Unreachable> propagate;
  for (const auto& u : h.unreachable) {
    RouteEntry* e = table_.find(u.dst);
    if (e == nullptr || !e->valid || e->next_hop != p.prev_hop) continue;
    e->valid = false;
    e->seqno = u.seqno;
    e->seqno_valid = true;
    if (!e->precursors.empty()) propagate.push_back(u);
    e->precursors.clear();
  }
  if (!propagate.empty()) send_rerr(propagate);
}

void Aodv::handle_hello(const net::Packet& p) {
  const auto& h = std::get<net::AodvHelloHeader>(*p.aodv);
  RouteEntry* e = table_.find(h.src);
  if (e == nullptr || !e->valid) {
    if (!params_.hello_installs_routes) return;  // liveness only (note_neighbor already ran)
    e = &table_.get_or_create(h.src);
  }
  if (!e->seqno_valid || !seqno_newer(e->seqno, h.seqno)) {
    e->seqno = h.seqno;
    e->seqno_valid = true;
    e->hop_count = 1;
    e->next_hop = h.src;
    e->valid = true;
    purge_timer_.unmute();
  }
  const sim::Time life =
      env_.now() + params_.hello_interval * static_cast<std::int64_t>(params_.allowed_hello_loss);
  if (e->expires < life) e->expires = life;
}

// ---------------------------------------------------------------------------
// Link failure
// ---------------------------------------------------------------------------

void Aodv::on_tx_fail(const net::Packet& p) {
  if (!p.mac) return;
  // Data packets whose source is us get another chance through a fresh
  // discovery; forwarded ones are reported via RERR only.
  handle_link_failure(p.mac->dst);
  if (p.ip && !p.aodv && p.ip->src == self_ && p.ip->dst != net::kBroadcastAddress) {
    net::Packet retry = p;
    retry.mac.reset();
    buffer_and_discover(std::move(retry));
  }
}

void Aodv::handle_link_failure(net::NodeId next_hop) {
  ++stats_.link_failures;
  if (!reroute_pending_) {
    reroute_pending_ = true;
    link_failed_at_ = env_.now();
  }
  neighbors_.erase(next_hop);
  std::vector<net::AodvRerrHeader::Unreachable> lost;
  bool notify = false;
  for (RouteEntry* e : table_.routes_via(next_hop)) {
    e->valid = false;
    ++e->seqno;  // §6.11: invalidating bumps the destination seqno
    lost.push_back({e->dst, e->seqno});
    if (!e->precursors.empty()) notify = true;
    e->precursors.clear();
    // Packets already queued for the dead hop will never be delivered.
    if (mac_ != nullptr) {
      for (auto& q : mac_->flush_next_hop(next_hop))
        env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, self_, q, "LNK");
    }
  }
  if (notify && !lost.empty()) send_rerr(lost);
}

void Aodv::send_rerr(const std::vector<net::AodvRerrHeader::Unreachable>& list) {
  if (list.empty()) return;
  net::Packet p = make_control(net::PacketType::kAodvRerr, net::kBroadcastAddress, 1);
  net::AodvRerrHeader h;
  h.unreachable = list;
  p.aodv = std::move(h);
  ++stats_.rerr_sent;
  env_.metrics().add(self_, sim::Counter::kAodvRerrSent);
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kRouter, self_, p);
  broadcast_jittered(std::move(p));
}

// ---------------------------------------------------------------------------
// HELLO neighbour sensing (TDMA mode)
// ---------------------------------------------------------------------------

void Aodv::start_hello() {
  hello_lane_ = env_.scheduler().lane(params_.hello_interval);
  hello_timer_.schedule_in(
      env_.rng().uniform_time(sim::Time::zero(), params_.hello_interval));
}

void Aodv::on_hello_tick() {
  hello_timer_.schedule_in(hello_lane_);

  net::Packet p = make_control(net::PacketType::kAodvHello, net::kBroadcastAddress, 1);
  net::AodvHelloHeader h;
  h.src = self_;
  h.seqno = seqno_;
  p.aodv = h;
  ++stats_.hello_sent;
  env_.metrics().add(self_, sim::Counter::kAodvHelloSent);
  broadcast_jittered(std::move(p));

  // Expire neighbours we have not heard from.
  const sim::Time deadline =
      params_.hello_interval * static_cast<std::int64_t>(params_.allowed_hello_loss);
  std::vector<net::NodeId> dead;
  for (const auto& [id, last] : neighbors_) {
    if (env_.now() - last > deadline) dead.push_back(id);
  }
  for (const net::NodeId id : dead) handle_link_failure(id);
}

void Aodv::note_neighbor(net::NodeId neighbor) {
  if (neighbor == net::kBroadcastAddress || neighbor == self_) return;
  neighbors_[neighbor] = env_.now();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

net::Packet Aodv::make_control(net::PacketType type, net::NodeId ip_dst, std::uint8_t ttl) {
  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = type;
  p.created = env_.now();
  p.ip.emplace();
  p.ip->src = self_;
  p.ip->dst = ip_dst;
  p.ip->ttl = ttl;
  return p;
}

void Aodv::broadcast_jittered(net::Packet p) {
  if (!p.mac) p.mac.emplace();
  p.mac->dst = net::kBroadcastAddress;
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

void Aodv::refresh_route(net::NodeId dst) {
  RouteEntry* e = table_.find(dst);
  if (e == nullptr || !e->valid) return;
  const sim::Time life = env_.now() + params_.active_route_timeout;
  if (e->expires < life) e->expires = life;
}

void Aodv::update_neighbor_route(net::NodeId neighbor) {
  if (neighbor == net::kBroadcastAddress || neighbor == self_) return;
  RouteEntry& e = table_.get_or_create(neighbor);
  if (!e.valid) {
    e.hop_count = 1;
    e.next_hop = neighbor;
    e.valid = true;
    purge_timer_.unmute();
  }
  const sim::Time life = env_.now() + params_.active_route_timeout;
  if (e.expires < life) e.expires = life;
}

bool Aodv::rreq_seen(net::NodeId origin, std::uint32_t bcast_id) {
  const std::uint64_t key = cache_key(origin, bcast_id);
  const sim::Time now = env_.now();
  const auto it = rreq_cache_.find(key);
  if (it != rreq_cache_.end() && it->second > now) return true;
  purge_timer_.unmute();
  rreq_cache_[key] = now + params_.bcast_id_save;
  return false;
}

void Aodv::on_purge_tick() {
  purge_timer_.schedule_in(purge_lane_);
  table_.purge(env_.now());
  const sim::Time now = env_.now();
  std::erase_if(rreq_cache_, [now](const auto& kv) { return kv.second <= now; });
  // Stale buffered packets (no route ever found and discovery gone).
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    auto& q = it->second;
    while (!q.empty() && now - q.front().queued_at > params_.buffer_timeout) {
      env_.trace(net::TraceAction::kDrop, net::TraceLayer::kRouter, self_, q.front().packet,
                 "BUF");
      q.pop_front();
    }
    it = q.empty() && !discoveries_.contains(it->first) ? buffer_.erase(it) : std::next(it);
  }
  // Nothing left that a later tick could expire or drop: mute the timer
  // until an entry turns valid or the RREQ cache or the buffer gains one.
  // The re-arm above was this handler's first act, so muted ticks keep
  // their keys.
  if (rreq_cache_.empty() && buffer_.empty() && !table_.any_valid()) purge_timer_.mute();
}

}  // namespace eblnet::routing
