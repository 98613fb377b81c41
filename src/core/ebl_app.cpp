#include "core/ebl_app.hpp"

#include <stdexcept>

namespace eblnet::core {
namespace {

transport::TcpParams link_tcp_params(const EblConfig& cfg) {
  transport::TcpParams p = cfg.tcp;
  p.packet_size = cfg.packet_bytes;
  return p;
}

}  // namespace

EblSender::EblSender(net::Env& env, net::Node& lead, net::Port lead_port, net::NodeId follower,
                     net::Port follower_port, const EblConfig& cfg)
    : sender_{lead, lead_port, link_tcp_params(cfg)},
      feeder_{env, sender_, cfg.packet_bytes,
              app::CbrSource::interval_for_rate(cfg.packet_bytes, cfg.cbr_rate_bps)} {
  sender_.connect(follower, follower_port);
}

EblLink::EblLink(net::Env& env, net::Node& lead, net::Node& follower, net::Port lead_port,
                 net::Port follower_port, const EblConfig& cfg)
    : follower_{follower},
      sender_{env, lead, lead_port, follower.id(), follower_port, cfg},
      sink_{follower, follower_port, cfg.sink} {}

PlatoonEbl::PlatoonEbl(net::Env& env, mobility::Platoon& platoon,
                       const std::vector<net::Node*>& nodes, EblConfig cfg, net::Port base_port) {
  if (nodes.size() != platoon.size())
    throw std::invalid_argument{"PlatoonEbl: one node per platoon vehicle required"};
  if (nodes.size() < 2) throw std::invalid_argument{"PlatoonEbl: need at least one follower"};

  for (std::size_t i = 1; i < nodes.size(); ++i) {
    links_.push_back(std::make_unique<EblLink>(env, *nodes[0], *nodes[i],
                                               ebl_lead_port(base_port, i),
                                               ebl_sink_port(base_port), cfg));
  }

  follow_lead_state(env, *platoon.lead(), links_);
}

bool PlatoonEbl::communicating() const {
  return !links_.empty() && links_.front()->running();
}

std::uint64_t PlatoonEbl::total_sink_bytes() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l->sink().bytes();
  return total;
}

}  // namespace eblnet::core
