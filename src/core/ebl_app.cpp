#include "core/ebl_app.hpp"

#include <stdexcept>

namespace eblnet::core {
namespace {

transport::TcpParams link_tcp_params(const EblConfig& cfg) {
  transport::TcpParams p = cfg.tcp;
  p.packet_size = cfg.packet_bytes;
  return p;
}

/// The paper's rule: start every link while `lead` brakes or is stopped
/// and stop them while it cruises — on each drive-state change, and once
/// when the simulation starts (a platoon may already be stopped, like the
/// paper's platoon 2). `links` must outlive the simulation.
void follow_lead_state(net::Env& env, mobility::Vehicle& lead,
                       const std::vector<std::unique_ptr<EblLink>>& links) {
  const auto apply = [&links](mobility::DriveState s) {
    for (const auto& l : links) {
      if (s != mobility::DriveState::kCruising) {
        l->start();
      } else {
        l->stop();
      }
    }
  };
  lead.subscribe(apply);
  env.scheduler().schedule_in(sim::Time::zero(), [apply, &lead] { apply(lead.state()); });
}

}  // namespace

EblLink::EblLink(net::Env& env, net::Node& lead, net::Node& follower, net::Port lead_port,
                 net::Port follower_port, const EblConfig& cfg)
    : follower_{follower},
      sender_{lead, lead_port, link_tcp_params(cfg)},
      feeder_{env, sender_, cfg.packet_bytes,
              app::CbrSource::interval_for_rate(cfg.packet_bytes, cfg.cbr_rate_bps)},
      sink_{follower, follower_port, cfg.sink} {
  sender_.connect(follower.id(), follower_port);
}

PlatoonEbl::PlatoonEbl(net::Env& env, mobility::Platoon& platoon,
                       const std::vector<net::Node*>& nodes, EblConfig cfg, net::Port base_port) {
  if (nodes.size() != platoon.size())
    throw std::invalid_argument{"PlatoonEbl: one node per platoon vehicle required"};
  if (nodes.size() < 2) throw std::invalid_argument{"PlatoonEbl: need at least one follower"};

  for (std::size_t i = 1; i < nodes.size(); ++i) {
    links_.push_back(std::make_unique<EblLink>(env, *nodes[0], *nodes[i],
                                               static_cast<net::Port>(base_port + i),
                                               static_cast<net::Port>(base_port + 100), cfg));
    links_.back()->mutable_sink().add_bytes_to(&sink_bytes_);
  }

  follow_lead_state(env, *platoon.lead(), links_);
}

bool PlatoonEbl::communicating() const {
  return !links_.empty() && links_.front()->running();
}

}  // namespace eblnet::core
