#include "core/flood.hpp"

namespace eblnet::core {

WarningFlood::WarningFlood(net::Env& env, net::Node& node, net::Port port, FloodParams params)
    : env_{env}, node_{node}, port_{port}, params_{params} {
  node_.bind_port(port_, this);
}

WarningFlood::~WarningFlood() { node_.unbind_port(port_); }

void WarningFlood::originate(std::uint64_t warning_id) {
  seen_.insert(warning_id);
  broadcast(warning_id, params_.hop_limit);
}

void WarningFlood::recv(net::Packet&& p) {
  if (!p.udp || !p.ip) return;
  const std::uint64_t id = p.app_seq;
  if (!seen_.insert(id).second) {
    ++dups_;
    return;
  }
  ++received_;
  env_.trace(net::TraceAction::kRecv, net::TraceLayer::kAgent, node_.id(), p);
  const auto hops = static_cast<unsigned>(params_.hop_limit - p.ip->ttl + 1);
  if (on_warning_) on_warning_(id, hops);
  if (p.ip->ttl > 1) {
    ++rebroadcasts_;
    const std::uint8_t ttl = static_cast<std::uint8_t>(p.ip->ttl - 1);
    const sim::Time jitter =
        env_.rng().uniform_time(sim::Time::zero(), params_.rebroadcast_jitter);
    env_.scheduler().schedule_in(jitter, [this, id, ttl] { broadcast(id, ttl); });
  }
}

void WarningFlood::broadcast(std::uint64_t warning_id, std::uint8_t ttl) {
  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = net::PacketType::kUdpData;
  p.payload_bytes = params_.payload_bytes;
  p.created = env_.now();
  p.app_seq = warning_id;
  p.ip.emplace();
  p.ip->src = node_.id();
  p.ip->dst = net::kBroadcastAddress;
  p.ip->ttl = ttl;
  p.udp.emplace();
  p.udp->sport = port_;
  p.udp->dport = port_;
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kAgent, node_.id(), p);
  node_.send(std::move(p));
}

}  // namespace eblnet::core
