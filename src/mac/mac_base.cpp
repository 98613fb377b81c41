#include "mac/mac_base.hpp"

#include <stdexcept>

namespace eblnet::mac {

MacBase::MacBase(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
                 std::unique_ptr<net::PacketQueue> ifq)
    : env_{env}, address_{address}, phy_{phy}, ifq_{std::move(ifq)} {
  if (!ifq_) throw std::invalid_argument{"MacBase: interface queue required"};
  ifq_->bind_metrics(&env.metrics(), address);
  ifq_->set_drop_callback([this](const net::Packet& p, const char* reason) {
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address_, p, reason);
  });
}

void MacBase::set_link_up(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  if (up) return;
  for (const net::Packet& p : ifq_->flush_all())
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address_, p, "FLT");
}

}  // namespace eblnet::mac
