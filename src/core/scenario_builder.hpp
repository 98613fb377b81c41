#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scenario.hpp"
#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"

namespace eblnet::core {

/// Fluent front door for configuring and running the intersection
/// scenario — the single public entry point examples and benches go
/// through. Every setter returns *this, so a whole experiment reads as
/// one expression:
///
///   const core::TrialResult r = core::ScenarioBuilder::trial1()
///                                   .seed(7)
///                                   .metrics()
///                                   .run("trial1/seed7");
///
/// Start from a preset (trial1/2/3, the paper's calibrated trials), from
/// a (packet size, MAC) point, or from scratch; fields without a named
/// setter are reachable through mutate().
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(ScenarioConfig config) : config_{std::move(config)} {}

  // --- presets ---
  /// The paper's trials: 1000 B/TDMA, 500 B/TDMA, 1000 B/802.11.
  static ScenarioBuilder trial1() { return ScenarioBuilder{trial1_config()}; }
  static ScenarioBuilder trial2() { return ScenarioBuilder{trial2_config()}; }
  static ScenarioBuilder trial3() { return ScenarioBuilder{trial3_config()}; }
  /// An arbitrary grid point sharing the trials' calibrated parameters.
  static ScenarioBuilder trial(std::size_t packet_bytes, MacType mac) {
    return ScenarioBuilder{make_trial_config(packet_bytes, mac)};
  }

  // --- the paper's variable parameters ---
  ScenarioBuilder& mac(MacType m) {
    config_.mac = m;
    return *this;
  }
  ScenarioBuilder& packet_bytes(std::size_t bytes) {
    config_.packet_bytes = bytes;
    return *this;
  }

  // --- baselines / ablations ---
  ScenarioBuilder& routing(RoutingType r) {
    config_.routing = r;
    return *this;
  }
  ScenarioBuilder& arp(bool on = true) {
    config_.use_arp = on;
    return *this;
  }
  ScenarioBuilder& red_queue(bool on = true) {
    config_.use_red_queue = on;
    return *this;
  }
  ScenarioBuilder& red_queue(const queue::RedParams& params) {
    config_.use_red_queue = true;
    config_.red = params;
    return *this;
  }

  // --- run shape ---
  ScenarioBuilder& platoon_size(std::size_t n) {
    config_.platoon_size = n;
    return *this;
  }
  ScenarioBuilder& duration(sim::Time t) {
    config_.duration = t;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t s) {
    config_.seed = s;
    return *this;
  }

  // --- channel / phy ---
  /// Broadcast-delivery tuning (spatial-grid threshold, re-bucket bounds).
  ScenarioBuilder& channel_params(const phy::ChannelParams& p) {
    config_.channel = p;
    return *this;
  }
  /// Channel model selection; `m` is the Nakagami shape (ignored by
  /// two-ray).
  ScenarioBuilder& propagation(PropagationType p, double m = 3.0) {
    config_.propagation = p;
    config_.nakagami_m = m;
    return *this;
  }
  /// Keyed per-pair Nakagami fade streams — fades become a pure function
  /// of (seed, tx, rx, transmit time), so they do not depend on delivery
  /// order.
  ScenarioBuilder& nakagami_node_streams(bool on = true) {
    config_.nakagami_node_streams = on;
    return *this;
  }
  /// Wrap the propagation model in corner-building NLOS blockage centred
  /// on the intersection (phy::IntersectionBlockage).
  ScenarioBuilder& with_intersection_blockage(double half_width_m = 10.0,
                                              double corner_loss_db = 10.0) {
    config_.blockage.enabled = true;
    config_.blockage.half_width_m = half_width_m;
    config_.blockage.corner_loss_db = corner_loss_db;
    return *this;
  }

  // --- V2X beaconing ---
  /// Select the 802.11p EDCA MAC (four access categories, broadcast
  /// frames never ACKed/retried).
  ScenarioBuilder& with_edca(const mac::EdcaParams& params = {}) {
    config_.mac = MacType::kEdca;
    config_.edca = params;
    return *this;
  }
  /// Start a periodic CAM/BSM broadcast beacon app on every node.
  ScenarioBuilder& with_beacons(sim::Time interval = sim::Time::milliseconds(100),
                                std::size_t payload_bytes = 200, std::uint8_t priority = 5) {
    config_.beacon.enabled = true;
    config_.beacon.interval = interval;
    config_.beacon.payload_bytes = payload_bytes;
    config_.beacon.priority = priority;
    return *this;
  }
  ScenarioBuilder& with_beacons(const BeaconConfig& cfg) {
    config_.beacon = cfg;
    config_.beacon.enabled = true;
    return *this;
  }

  // --- closed-loop driving ---
  /// Close the loop: platoon 1's followers brake only when their first
  /// EBL message arrives (EblBrakeReactor per follower + a
  /// CollisionMonitor on the column), instead of the scripted all-stop.
  ScenarioBuilder& with_reactive_braking(double decel_mps2 = 6.0,
                                         sim::Time reaction = sim::Time::milliseconds(100)) {
    config_.reactive.enabled = true;
    config_.reactive.decel_mps2 = decel_mps2;
    config_.reactive.reaction = reaction;
    return *this;
  }
  ScenarioBuilder& with_reactive_braking(const ReactiveBrakingConfig& cfg) {
    config_.reactive = cfg;
    config_.reactive.enabled = true;
    return *this;
  }

  /// Replace the scripted intersection with closed-loop car-following
  /// traffic (mobility::TrafficFlow + V2V warning flooding for the
  /// equipped fraction). Terminal operation is run_traffic(); the
  /// scripted terminals (run/build_scenario) refuse a traffic config so
  /// the two scenario families cannot be silently mixed. The traffic
  /// run inherits the builder's seed unless the config sets its own.
  ScenarioBuilder& with_traffic_flow(TrafficConfig cfg) {
    traffic_ = std::move(cfg);
    traffic_.enabled = true;
    return *this;
  }
  const TrafficConfig& traffic_config() const noexcept { return traffic_; }

  // --- fault injection ---
  /// Install a deterministic fault schedule (node crashes, RF blackouts,
  /// packet-error rates, jamming). The default empty plan leaves the run
  /// bit-identical to a fault-free binary.
  ScenarioBuilder& with_faults(sim::FaultPlan plan) {
    config_.faults = std::move(plan);
    return *this;
  }

  // --- observability ---
  /// Enable the per-layer metrics registry (JSON manifests need this).
  ScenarioBuilder& metrics(bool on = true) {
    config_.enable_metrics = on;
    return *this;
  }
  ScenarioBuilder& trace(bool on = true) {
    config_.enable_trace = on;
    return *this;
  }

  /// Escape hatch for fields without a named setter.
  ScenarioBuilder& mutate(const std::function<void(ScenarioConfig&)>& fn) {
    fn(config_);
    return *this;
  }

  // --- terminal operations ---
  const ScenarioConfig& config() const noexcept { return config_; }
  ScenarioConfig build() const { return config_; }

  /// Construct the scenario without running it (step it manually with
  /// run_until, attach reactors, ...).
  std::unique_ptr<EblScenario> build_scenario() const {
    reject_traffic("build_scenario");
    return std::make_unique<EblScenario>(config_);
  }

  /// Run to completion and extract the TrialResult (see core::run_trial).
  TrialResult run(std::string name = {},
                  const std::function<void(EblScenario&)>& after_run = {}) const {
    reject_traffic("run");
    return run_trial(config_, std::move(name), after_run);
  }

  /// Construct the closed-loop traffic scenario (requires
  /// with_traffic_flow). Seed defaults to the builder's seed.
  std::unique_ptr<TrafficScenario> build_traffic_scenario() const {
    return std::make_unique<TrafficScenario>(traffic_run_config("build_traffic_scenario"));
  }

  /// Run the closed-loop traffic scenario and collect its sweep row.
  TrafficRunResult run_traffic(std::string name = {}) const {
    TrafficScenario scenario{traffic_run_config("run_traffic")};
    scenario.run();
    return scenario.result(std::move(name));
  }

 private:
  TrafficConfig traffic_run_config(const char* what) const {
    if (!traffic_.enabled)
      throw std::logic_error{std::string{"ScenarioBuilder: call with_traffic_flow before "} +
                             what};
    TrafficConfig cfg = traffic_;
    if (cfg.seed == 1) cfg.seed = config_.seed;
    return cfg;
  }

  void reject_traffic(const char* what) const {
    if (traffic_.enabled)
      throw std::logic_error{std::string{"ScenarioBuilder: "} + what +
                             " is the scripted-scenario terminal; a traffic config is installed — "
                             "use run_traffic/build_traffic_scenario"};
  }

  ScenarioConfig config_;
  TrafficConfig traffic_;
};

}  // namespace eblnet::core
