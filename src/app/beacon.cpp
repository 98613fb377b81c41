#include "app/beacon.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace eblnet::app {

namespace {

/// Domain tag for the per-node beacon phase (see core's kFlowSeedTag idiom).
constexpr std::uint64_t kBeaconSeedTag = 0x5F10'77D0'0003ULL;

/// Map a mixed hash onto [0, 1) with 53 significant bits.
double hash_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Beacon::Beacon(net::Env& env, net::Node& node, phy::WirelessPhy* phy, BeaconParams params)
    : env_{env},
      node_{node},
      phy_{phy},
      params_{params},
      timer_{env.scheduler(), [this] { tick(); }} {
  // A zero interval re-arms tick() at now() forever.
  if (params_.interval <= sim::Time::zero())
    throw std::invalid_argument{"Beacon: interval must be > 0"};
  lane_ = env.scheduler().lane(params_.interval);
  node_.bind_port(params_.port, this);
}

Beacon::~Beacon() { node_.unbind_port(params_.port); }

void Beacon::start() {
  if (running_) return;
  running_ = true;
  if (phy_) {
    last_busy_ = phy_->busy_time();
    cbr_primed_ = true;
  }
  // Seeded phase jitter: a pure hash, so the offset is a function of
  // (phase_seed, node id) alone and consumes no RNG stream state.
  const std::uint64_t h =
      sim::mix_seed(sim::mix_seed(kBeaconSeedTag, params_.phase_seed), node_.id());
  timer_.schedule_in(params_.interval * hash_unit(h));
}

void Beacon::stop() {
  running_ = false;
  timer_.cancel();
}

void Beacon::tick() {
  if (!running_) return;
  sample_cbr();
  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = net::PacketType::kBeacon;
  p.payload_bytes = params_.payload_bytes;
  p.created = env_.now();
  p.app_seq = seq_++;
  p.priority = params_.priority;
  p.ip.emplace();
  p.ip->src = node_.id();
  p.ip->dst = net::kBroadcastAddress;
  p.ip->ttl = 1;  // single hop, never forwarded
  p.udp.emplace();
  p.udp->sport = params_.port;
  p.udp->dport = params_.port;
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kAgent, node_.id(), p);
  ++sent_;
  env_.metrics().add(node_.id(), sim::Counter::kAppBeaconSent);
  node_.send(std::move(p));
  timer_.schedule_in(lane_);
}

void Beacon::sample_cbr() {
  if (!phy_) return;
  const sim::Time busy = phy_->busy_time();
  if (cbr_primed_) {
    const double ratio = (busy - last_busy_).to_seconds() / params_.interval.to_seconds();
    env_.metrics().sample(node_.id(), sim::Gauge::kChannelBusyRatio, ratio);
  }
  last_busy_ = busy;
  cbr_primed_ = true;
}

void Beacon::recv(net::Packet&& p) {
  if (p.type != net::PacketType::kBeacon || !p.ip) return;
  const net::NodeId sender = p.ip->src;
  if (sender == node_.id()) return;
  ++received_;
  env_.metrics().add(node_.id(), sim::Counter::kAppBeaconReceived);
  env_.trace(net::TraceAction::kRecv, net::TraceLayer::kAgent, node_.id(), p);
  const sim::Time now = env_.now();
  if (const auto it = last_rx_.find(sender); it != last_rx_.end()) {
    env_.metrics().sample(node_.id(), sim::Gauge::kBeaconInterRxSeconds,
                          (now - it->second).to_seconds());
    it->second = now;
  } else {
    last_rx_.emplace(sender, now);
  }
  if (on_beacon_) on_beacon_(sender, p);
}

}  // namespace eblnet::app
