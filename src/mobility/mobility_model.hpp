#pragma once

#include "mobility/vec2.hpp"
#include "sim/time.hpp"

namespace eblnet::mobility {

/// Position source for a node — the *read side* of the mobility split.
/// Consumers (phy, SpatialGrid, nam_export) only ever call these const
/// accessors; how the trajectory comes to be is not their business.
///
/// Scripted implementations (StaticMobility, Vehicle, Platoon) compute
/// position lazily from closed-form kinematics — there is no per-tick
/// movement event, so they add zero load to the event queue. The
/// stateful dynamics engine (TrafficFlow) integrates on a fixed tick
/// through the event queue; its radios read `TrafficFlow::position_of`,
/// which extrapolates linearly between ticks.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual Vec2 position_at(sim::Time t) const = 0;
  virtual Vec2 velocity_at(sim::Time t) const = 0;

  double speed_at(sim::Time t) const { return velocity_at(t).length(); }
};

/// A node that never moves.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 pos) : pos_{pos} {}
  Vec2 position_at(sim::Time) const override { return pos_; }
  Vec2 velocity_at(sim::Time) const override { return {}; }

 private:
  Vec2 pos_;
};

}  // namespace eblnet::mobility
