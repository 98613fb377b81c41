#pragma once

#include <functional>

#include "mobility/vehicle.hpp"
#include "net/env.hpp"
#include "sim/timer.hpp"
#include "transport/tcp_sink.hpp"

namespace eblnet::core {

/// Per-vehicle driving-policy hook: closes the control loop the paper
/// only analyses on paper. When the first warning reaches this vehicle
/// (via a TCP sink's data callback, or any other source calling
/// `notify()`), an arbitrary driving-policy action runs after a fixed
/// perception/actuation latency. The original use — brake one scripted
/// `mobility::Vehicle` — is the legacy constructor; closed-loop traffic
/// instead installs an IDM policy override (`TrafficFlow::apply_policy`)
/// so EBL reception feeds the car-following target gap/decel directly.
/// Combined with CollisionMonitor this turns the §III.E
/// stopping-distance argument into an executable experiment.
class EblBrakeReactor {
 public:
  /// Free-standing hook: the caller wires `notify()` to its own warning
  /// source (e.g. a WarningFlood reception callback); `policy` runs once
  /// per episode, `reaction` after the first notification.
  EblBrakeReactor(net::Env& env, std::function<void()> policy, sim::Time reaction);

  /// Hook driven by brake messages arriving at `sink`.
  EblBrakeReactor(net::Env& env, transport::TcpSink& sink, std::function<void()> policy,
                  sim::Time reaction);

  /// Legacy form: reacts to brake messages arriving at `sink` by braking
  /// `vehicle` at `decel` after `reaction`.
  EblBrakeReactor(net::Env& env, transport::TcpSink& sink,
                  std::shared_ptr<mobility::Vehicle> vehicle, double decel,
                  sim::Time reaction);

  /// First-warning entry point. Idempotent per episode: only the first
  /// call after construction/reset() schedules the policy action.
  void notify();

  bool triggered() const noexcept { return triggered_; }
  /// When the first brake message arrived (valid once triggered).
  sim::Time notified_at() const noexcept { return notified_at_; }
  /// When the policy actually engaged (valid once the timer fired).
  sim::Time braked_at() const noexcept { return braked_at_; }

  /// Re-arm for a new braking episode (e.g. after the platoon resumes).
  void reset();

 private:
  net::Env& env_;
  std::function<void()> policy_;
  sim::Time reaction_;
  bool triggered_{false};
  sim::Time notified_at_{};
  sim::Time braked_at_{};
  sim::Timer actuate_timer_;
};

/// Watches an ordered column of vehicles and reports the first time any
/// follower's position passes within `min_gap` of its predecessor —
/// i.e. a (near-)collision. Closed-form kinematics make exact checking
/// cheap: the monitor samples at a fixed interval much smaller than any
/// braking time constant.
class CollisionMonitor {
 public:
  CollisionMonitor(net::Env& env, std::vector<std::shared_ptr<mobility::Vehicle>> column,
                   double min_gap, sim::Time sample_interval = sim::Time::milliseconds(10));

  void start();
  void stop();

  bool collided() const noexcept { return collided_; }
  sim::Time collision_time() const noexcept { return collision_time_; }
  /// Index of the trailing vehicle in the offending pair (valid if collided).
  std::size_t collision_follower() const noexcept { return follower_; }
  /// Smallest gap observed so far between any adjacent pair (metres).
  double min_observed_gap() const noexcept { return min_observed_gap_; }

 private:
  void sample();

  net::Env& env_;
  std::vector<std::shared_ptr<mobility::Vehicle>> column_;
  double min_gap_;
  bool running_{false};
  bool collided_{false};
  sim::Scheduler::Lane lane_;  ///< the sample interval's lane
  sim::Time collision_time_{};
  std::size_t follower_{0};
  double min_observed_gap_{1e300};
  sim::Timer timer_;
};

}  // namespace eblnet::core
