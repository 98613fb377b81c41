#pragma once

#include <functional>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace eblnet::mobility {

/// Driving state of a vehicle. The EBL application communicates exactly
/// while the vehicle is kBraking or kStopped (the paper's rule:
/// "communication between the vehicles occurs only when the vehicles are
/// braking or stopped").
enum class DriveState : std::uint8_t { kCruising, kBraking, kStopped };

const char* to_string(DriveState s) noexcept;

/// A vehicle moving along a fixed heading with piecewise-constant
/// acceleration: cruising at constant speed, braking at constant
/// deceleration to a stop, or stopped. Closed-form kinematics; the only
/// scheduled event is the braking→stopped transition.
class Vehicle final : public MobilityModel {
 public:
  /// Starts stopped at `pos`, facing `heading` (need not be unit length).
  Vehicle(sim::Scheduler& sched, Vec2 pos, Vec2 heading);

  Vehicle(const Vehicle&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;

  /// Begin (or continue) cruising at `speed` m/s along the heading
  /// (instantaneous speed change).
  void cruise(double speed);

  /// Brake at `decel` m/s^2 until stopped. No-op when already stopped.
  void brake(double decel);

  DriveState state() const noexcept { return state_; }
  bool is_braking_or_stopped() const noexcept { return state_ != DriveState::kCruising; }

  /// Speed right now (m/s).
  double current_speed() const;

  /// Observers are notified on every state transition, including the
  /// scheduled braking→stopped transition.
  using StateCallback = std::function<void(DriveState)>;
  void subscribe(StateCallback cb) { observers_.push_back(std::move(cb)); }

  Vec2 position_at(sim::Time t) const override;
  Vec2 velocity_at(sim::Time t) const override;

  /// Distance covered from speed `v` to rest at constant `decel` (m).
  static double stopping_distance(double v, double decel) { return v * v / (2.0 * decel); }

 private:
  /// One kinematic phase starting at `t0`: speed ramps from v0 at
  /// `accel` (signed, along the heading) until it reaches `v_target`,
  /// then holds. Braking is accel < 0 with v_target = 0.
  struct Phase {
    sim::Time t0;
    Vec2 pos0;
    double v0;        ///< speed at t0 (m/s, along heading)
    double accel;     ///< signed acceleration along the heading
    double v_target;  ///< speed held once reached

    /// Seconds after t0 at which v_target is reached (0 when accel == 0).
    double ramp_seconds() const noexcept {
      return accel == 0.0 ? 0.0 : (v_target - v0) / accel;
    }
  };

  const Phase& phase_for(sim::Time t) const;
  void push_phase(double v0, double accel, double v_target);
  void enter_state(DriveState s);

  sim::Scheduler& sched_;
  std::vector<Phase> phases_;
  Vec2 heading_;  ///< unit vector
  DriveState state_{DriveState::kStopped};
  sim::Timer stop_timer_;
  std::vector<StateCallback> observers_;
};

}  // namespace eblnet::mobility
