#include "mobility/vehicle.hpp"

#include <cassert>
#include <stdexcept>

namespace eblnet::mobility {

const char* to_string(DriveState s) noexcept {
  switch (s) {
    case DriveState::kCruising: return "cruising";
    case DriveState::kBraking: return "braking";
    case DriveState::kStopped: return "stopped";
  }
  return "?";
}

Vehicle::Vehicle(sim::Scheduler& sched, Vec2 pos, Vec2 heading)
    : sched_{sched},
      heading_{heading.normalized()},
      stop_timer_{sched, [this] { enter_state(DriveState::kStopped); }} {
  if (heading_ == Vec2{}) throw std::invalid_argument{"Vehicle: heading must be nonzero"};
  phases_.push_back(Phase{sched_.now(), pos, 0.0, 0.0, 0.0});
}

void Vehicle::cruise(double speed) {
  if (speed <= 0.0) throw std::invalid_argument{"Vehicle: cruise speed must be > 0"};
  stop_timer_.cancel();
  push_phase(speed, 0.0, speed);
  enter_state(DriveState::kCruising);
}

void Vehicle::brake(double decel) {
  if (decel <= 0.0) throw std::invalid_argument{"Vehicle: deceleration must be > 0"};
  if (state_ == DriveState::kStopped) return;
  const double v = current_speed();
  push_phase(v, -decel, 0.0);
  if (v <= 0.0) {
    enter_state(DriveState::kStopped);
    return;
  }
  enter_state(DriveState::kBraking);
  stop_timer_.schedule_in(sim::Time::seconds(v / decel));
}

double Vehicle::current_speed() const { return velocity_at(sched_.now()).length(); }

const Vehicle::Phase& Vehicle::phase_for(sim::Time t) const {
  assert(!phases_.empty());
  const Phase* found = &phases_.front();
  for (const auto& ph : phases_) {
    if (ph.t0 <= t) found = &ph;
    else break;
  }
  return *found;
}

void Vehicle::push_phase(double v0, double accel, double v_target) {
  const sim::Time now = sched_.now();
  const Vec2 pos = position_at(now);
  if (!phases_.empty() && phases_.back().t0 == now) phases_.pop_back();
  phases_.push_back(Phase{now, pos, v0, accel, v_target});
}

void Vehicle::enter_state(DriveState s) {
  if (state_ == s) return;
  state_ = s;
  for (const auto& cb : observers_) cb(s);
}

Vec2 Vehicle::position_at(sim::Time t) const {
  const Phase& ph = phase_for(t);
  double dt = (t - ph.t0).to_seconds();
  if (dt < 0.0) dt = 0.0;
  double s;
  if (ph.accel != 0.0) {
    const double t_ramp = ph.ramp_seconds();
    if (dt < t_ramp) {
      s = ph.v0 * dt + 0.5 * ph.accel * dt * dt;
    } else {
      s = 0.5 * (ph.v0 + ph.v_target) * t_ramp + ph.v_target * (dt - t_ramp);
    }
  } else {
    s = ph.v0 * dt;
  }
  return ph.pos0 + heading_ * s;
}

Vec2 Vehicle::velocity_at(sim::Time t) const {
  const Phase& ph = phase_for(t);
  double dt = (t - ph.t0).to_seconds();
  if (dt < 0.0) dt = 0.0;
  double v = ph.v0;
  if (ph.accel != 0.0) {
    v = dt < ph.ramp_seconds() ? ph.v0 + ph.accel * dt : ph.v_target;
  }
  return heading_ * v;
}

}  // namespace eblnet::mobility
