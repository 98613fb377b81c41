#pragma once

#include <memory>
#include <vector>

#include "mobility/vehicle.hpp"

namespace eblnet::mobility {

/// A column of vehicles with fixed headway that move as a unit: the lead
/// vehicle at `lead_pos`, followers spaced `gap` metres behind it along
/// the (reversed) heading. Commands are applied to every member, so the
/// platoon keeps its geometry — the coordinated-driving idealisation the
/// paper's scenario uses.
class Platoon {
 public:
  Platoon(sim::Scheduler& sched, std::size_t size, Vec2 lead_pos, Vec2 heading, double gap);

  std::size_t size() const noexcept { return vehicles_.size(); }
  double gap() const noexcept { return gap_; }

  /// Member 0 is the lead vehicle; higher indices trail behind.
  const std::shared_ptr<Vehicle>& vehicle(std::size_t i) const { return vehicles_.at(i); }
  const std::shared_ptr<Vehicle>& lead() const { return vehicles_.front(); }
  const std::shared_ptr<Vehicle>& trailing() const { return vehicles_.back(); }

  void cruise(double speed);
  void brake(double decel);

  /// Convenience: cruise at `speed` and brake with `decel` timed so the
  /// *lead* vehicle comes to rest exactly at `stop_point` (which must lie
  /// ahead along the heading). Events are scheduled on the shared
  /// scheduler. Returns the time at which the platoon will be fully
  /// stopped.
  sim::Time drive_and_stop_at(Vec2 stop_point, double speed, double decel);

 private:
  sim::Scheduler& sched_;
  std::vector<std::shared_ptr<Vehicle>> vehicles_;
  double gap_;
};

}  // namespace eblnet::mobility
