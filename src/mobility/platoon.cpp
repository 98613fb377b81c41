#include "mobility/platoon.hpp"

#include <stdexcept>

namespace eblnet::mobility {

Platoon::Platoon(sim::Scheduler& sched, std::size_t size, Vec2 lead_pos, Vec2 heading, double gap)
    : sched_{sched}, gap_{gap} {
  if (size == 0) throw std::invalid_argument{"Platoon: need at least one vehicle"};
  if (gap <= 0.0) throw std::invalid_argument{"Platoon: gap must be > 0"};
  const Vec2 h = heading.normalized();
  if (h == Vec2{}) throw std::invalid_argument{"Platoon: heading must be nonzero"};
  vehicles_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const Vec2 pos = lead_pos - h * (gap * static_cast<double>(i));
    vehicles_.push_back(std::make_shared<Vehicle>(sched, pos, h));
  }
}

void Platoon::cruise(double speed) {
  for (const auto& v : vehicles_) v->cruise(speed);
}

void Platoon::brake(double decel) {
  for (const auto& v : vehicles_) v->brake(decel);
}

sim::Time Platoon::drive_and_stop_at(Vec2 stop_point, double speed, double decel) {
  if (speed <= 0.0 || decel <= 0.0)
    throw std::invalid_argument{"Platoon: speed and decel must be > 0"};
  const Vec2 lead_pos = lead()->position_at(sched_.now());
  const Vec2 h = (stop_point - lead_pos).normalized();
  if (h == Vec2{}) throw std::invalid_argument{"Platoon: already at the stop point"};
  const double total = distance(lead_pos, stop_point);
  const double braking_dist = Vehicle::stopping_distance(speed, decel);
  if (braking_dist > total)
    throw std::invalid_argument{"Platoon: cannot stop in time at this speed/decel"};
  const double cruise_dist = total - braking_dist;
  const sim::Time brake_at = sched_.now() + sim::Time::seconds(cruise_dist / speed);
  const sim::Time stopped_at = brake_at + sim::Time::seconds(speed / decel);
  cruise(speed);
  sched_.schedule_at(brake_at, [this, decel] { brake(decel); });
  return stopped_at;
}

}  // namespace eblnet::mobility
