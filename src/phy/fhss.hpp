#pragma once

#include <vector>

#include "net/env.hpp"
#include "phy/wireless_phy.hpp"
#include "sim/timer.hpp"

namespace eblnet::phy {

/// Frequency-Hopping Spread Spectrum controller: retunes a group of
/// radios through a shared pseudo-random channel sequence at a fixed
/// dwell time. Members hop in lockstep (the sequence is derived from the
/// shared `hop_seed`, standing in for a pre-shared hopping key), so the
/// group keeps communicating while a fixed-frequency jammer only touches
/// it for ~1/num_channels of the time — the TDMA+FHSS DoS mitigation the
/// paper's §III.E points to.
class FhssHopper {
 public:
  FhssHopper(net::Env& env, std::vector<WirelessPhy*> members, std::uint32_t num_channels,
             sim::Time dwell, std::uint64_t hop_seed);

  void start();
  void stop();

  std::uint32_t current_channel() const noexcept { return current_; }
  std::uint32_t num_channels() const noexcept { return num_channels_; }
  std::uint64_t hops() const noexcept { return hops_; }

 private:
  void hop();

  std::vector<WirelessPhy*> members_;
  std::uint32_t num_channels_;
  sim::Rng hop_rng_;
  std::uint32_t current_{0};
  std::uint64_t hops_{0};
  bool running_{false};
  sim::Scheduler::Lane lane_;  ///< the dwell time's lane
  sim::Timer timer_;
};

}  // namespace eblnet::phy
