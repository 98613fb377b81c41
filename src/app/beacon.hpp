#pragma once

#include <functional>
#include <unordered_map>

#include "net/env.hpp"
#include "net/node.hpp"
#include "phy/wireless_phy.hpp"
#include "sim/timer.hpp"

namespace eblnet::app {

/// Cooperative-awareness beaconing parameters (CAM / BSM style).
struct BeaconParams {
  sim::Time interval{sim::Time::milliseconds(100)};  ///< 10 Hz default
  std::size_t payload_bytes{200};
  /// 802.1D user priority carried on every beacon; the EDCA MAC maps it
  /// onto an access category (5 -> AC_VI, the usual CAM assignment).
  std::uint8_t priority{5};
  net::Port port{5005};
  /// Mixed with the node id into the start-phase jitter, so two trials of
  /// the same scenario with different seeds de-synchronise differently.
  std::uint64_t phase_seed{0};
};

/// Periodic single-hop broadcast beaconing — the CAM/BSM heartbeat every
/// V2X safety application sits on, and the traffic source of the
/// intersection study. Each node broadcasts a `payload_bytes` beacon every
/// `interval`, offset by a seeded per-node phase (a pure hash of
/// phase_seed and node id, no RNG stream consumed) so the fleet does not
/// synchronise its transmissions.
///
/// Beacons ride in kBeacon packets with IP broadcast + UDP headers
/// (ttl = 1: never forwarded) so the existing routing/port plumbing
/// carries them without new dispatch paths.
///
/// Per-node measurements, exported through the metrics registry:
///  - kAppBeaconSent / kAppBeaconReceived counters;
///  - kBeaconInterRxSeconds: gap between consecutive beacons from the same
///    sender (the inter-reception time of the beaconing literature);
///  - kChannelBusyRatio: fraction of each beacon interval this node's
///    radio observed the carrier busy (sampled once per tick).
class Beacon final : public net::PortHandler {
 public:
  /// `phy` may be null; then the channel-busy-ratio gauge is not sampled.
  Beacon(net::Env& env, net::Node& node, phy::WirelessPhy* phy, BeaconParams params = {});
  ~Beacon() override;

  Beacon(const Beacon&) = delete;
  Beacon& operator=(const Beacon&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Called for every beacon received, after the metrics are recorded.
  using BeaconCallback = std::function<void(net::NodeId sender, const net::Packet& p)>;
  void set_on_beacon(BeaconCallback cb) { on_beacon_ = std::move(cb); }

  void recv(net::Packet&& p) override;

  const BeaconParams& params() const noexcept { return params_; }
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t received() const noexcept { return received_; }

 private:
  void tick();
  void sample_cbr();

  net::Env& env_;
  net::Node& node_;
  phy::WirelessPhy* phy_;
  BeaconParams params_;
  sim::Timer timer_;
  bool running_{false};
  sim::Scheduler::Lane lane_;  ///< params_.interval's lane (steady-state re-arm)
  std::uint64_t seq_{0};
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
  sim::Time last_busy_{};
  bool cbr_primed_{false};
  std::unordered_map<net::NodeId, sim::Time> last_rx_;
  BeaconCallback on_beacon_;
};

}  // namespace eblnet::app
