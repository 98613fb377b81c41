#include "phy/fhss.hpp"

#include <stdexcept>

namespace eblnet::phy {

FhssHopper::FhssHopper(net::Env& env, std::vector<WirelessPhy*> members,
                       std::uint32_t num_channels, sim::Time dwell, std::uint64_t hop_seed)
    : members_{std::move(members)},
      num_channels_{num_channels},
      hop_rng_{hop_seed},
      timer_{env.scheduler(), [this] { hop(); }} {
  if (num_channels_ == 0) throw std::invalid_argument{"FhssHopper: need at least one channel"};
  if (dwell <= sim::Time::zero()) throw std::invalid_argument{"FhssHopper: dwell must be > 0"};
  if (members_.empty()) throw std::invalid_argument{"FhssHopper: no member radios"};
  lane_ = env.scheduler().lane(dwell);
}

void FhssHopper::start() {
  if (running_) return;
  running_ = true;
  hop();
}

void FhssHopper::stop() {
  running_ = false;
  timer_.cancel();
}

void FhssHopper::hop() {
  if (!running_) return;
  current_ = static_cast<std::uint32_t>(hop_rng_.uniform_int(std::uint64_t{num_channels_}));
  ++hops_;
  for (WirelessPhy* phy : members_) phy->set_channel_id(current_);
  timer_.schedule_in(lane_);
}

}  // namespace eblnet::phy
