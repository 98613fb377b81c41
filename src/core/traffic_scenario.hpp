#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flood.hpp"
#include "core/reactor.hpp"
#include "mac/mac_80211.hpp"
#include "mobility/traffic_flow.hpp"
#include "net/env.hpp"
#include "net/node.hpp"
#include "phy/wireless_phy.hpp"

namespace eblnet::core {

/// Configuration of a closed-loop car-following run: an IDM traffic
/// stream (mobility::TrafficFlow) in which a `penetration` fraction of
/// vehicles carries a V2V radio. Equipped vehicles flood a warning when
/// they brake hard; equipped receivers upstream of the origin install a
/// cautious driving policy (wider headway, capped speed) `reaction`
/// after the warning arrives — changing congestion onset, which is the
/// effect the scripted intersection scenario cannot express.
struct TrafficConfig {
  bool enabled{false};

  /// Road network, IDM calibration, arrival rates, tick, vehicle cap.
  mobility::TrafficFlowParams flow{};

  /// Fraction of vehicles carrying a radio; membership is a
  /// deterministic per-vehicle hash of (seed, spawn index), so sweeping
  /// penetration compares identical traffic.
  double penetration{1.0};
  /// Warnings are acted on only if the origin is on the same road, ahead
  /// of the receiver, and within this distance.
  double warn_range_m{1000.0};
  /// Perception/actuation latency between reception and the policy.
  sim::Time reaction{sim::Time::milliseconds(250)};
  /// Policy installed on warned vehicles, and how long it holds.
  mobility::DrivingPolicy warned_policy{2.0, 8.0};
  sim::Time policy_hold{sim::Time::seconds(std::int64_t{30})};

  /// Staged incident seeding the shockwave: at `incident_at` (zero =
  /// none) the vehicle on road 0, lane 0 closest to `incident_pos_m`
  /// (< 0 = mid-road) is forced to brake at `incident_decel_mps2` and
  /// hold still for `incident_hold`.
  sim::Time incident_at{};
  double incident_decel_mps2{6.0};
  sim::Time incident_hold{sim::Time::seconds(std::int64_t{60})};
  double incident_pos_m{-1.0};

  /// Mean speed below this counts as congested (onset metric).
  double congestion_speed_mps{10.0};

  FloodParams flood{};
  phy::PhyParams phy{};
  mac::Mac80211Params mac80211{};
  phy::ChannelParams channel{};
  std::size_t ifq_capacity{50};

  sim::Time duration{sim::Time::seconds(std::int64_t{120})};
  std::uint64_t seed{1};
};

/// Outcome of one closed-loop traffic run — the row a market-penetration
/// sweep reports per cell.
struct TrafficRunResult {
  std::string name;
  double penetration{0.0};
  std::uint64_t vehicles_spawned{0};
  std::uint64_t equipped{0};
  std::uint64_t warnings_originated{0};
  std::uint64_t warning_receptions{0};  ///< distinct deliveries at the flood layer
  std::uint64_t reactions{0};           ///< receptions that installed a policy
  /// Least-squares slope (m/s) of first-slow position vs. time for
  /// vehicles upstream of the incident — the shockwave front's speed
  /// (negative = propagating upstream against traffic).
  double shockwave_speed_mps{0.0};
  std::uint64_t shockwave_points{0};  ///< samples behind the fit
  /// First time mean speed fell below congestion_speed_mps after the
  /// incident; -1 = never congested.
  double congestion_onset_s{-1.0};
  std::uint64_t slowed_vehicles{0};
  double final_mean_speed_mps{0.0};
  std::uint64_t events_executed{0};
};

/// Closed-loop traffic scenario: wires a TrafficFlow engine to a real
/// radio stack (802.11 broadcast + WarningFlood) for the equipped
/// subset of vehicles. Nodes are created as vehicles spawn and powered
/// down as they leave; the channel's spatial grid learns the dynamics
/// side's speed bound before anything moves, so accelerating IDM
/// vehicles never outrun their cull radius.
class TrafficScenario {
 public:
  explicit TrafficScenario(TrafficConfig config);
  ~TrafficScenario();

  TrafficScenario(const TrafficScenario&) = delete;
  TrafficScenario& operator=(const TrafficScenario&) = delete;

  /// Run to config.duration.
  void run();
  void run_until(sim::Time t);

  /// Collect the sweep-row metrics (valid any time; final after run()).
  TrafficRunResult result(std::string name = {});

  const TrafficConfig& config() const noexcept { return config_; }
  net::Env& env() noexcept { return env_; }
  mobility::TrafficFlow& flow() noexcept { return *flow_; }
  phy::Channel& channel() noexcept { return *channel_; }
  std::uint64_t equipped_count() const noexcept { return equipped_count_; }

 private:
  using VehicleId = mobility::TrafficFlow::VehicleId;

  /// Radio stack of one equipped vehicle. Declaration order matters:
  /// the flood unbinds its port from the node on destruction.
  struct Equipped {
    std::unique_ptr<phy::WirelessPhy> phy;
    std::unique_ptr<net::Node> node;
    std::unique_ptr<WarningFlood> flood;
    std::unique_ptr<EblBrakeReactor> reactor;
  };

  bool equip_roll(VehicleId v) const;
  void on_spawn(VehicleId v);
  void on_despawn(VehicleId v);
  void on_hard_brake(VehicleId v);
  void on_warning(VehicleId receiver, std::uint64_t warning_id);
  void trigger_incident();

  TrafficConfig config_;
  net::Env env_;
  std::shared_ptr<phy::PropagationModel> propagation_;
  std::unique_ptr<phy::Channel> channel_;
  std::unique_ptr<mobility::TrafficFlow> flow_;
  std::vector<std::unique_ptr<Equipped>> equipped_;  ///< indexed by vehicle id; sparse
  std::uint64_t equip_seed_{0};
  std::uint64_t equipped_count_{0};
  std::uint64_t warning_counter_{0};
  std::uint64_t warnings_originated_{0};
  std::uint64_t warning_receptions_{0};
  std::uint64_t reactions_{0};
  VehicleId incident_vehicle_{mobility::TrafficFlow::kNoVehicle};
  double incident_pos_{-1.0};
  sim::Time incident_time_{};
};

}  // namespace eblnet::core
