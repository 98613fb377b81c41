#pragma once

#include <stdexcept>
#include <vector>

#include "mobility/mobility_model.hpp"

namespace eblnet::testing {

/// NS-2 `setdest`-style waypoint mobility, the fixture the routing,
/// reactor and nam-export tests move nodes with: a sequence of (time,
/// destination, speed) commands; the node moves in a straight line at
/// constant speed toward each destination and waits there until the next
/// command. Commands may be installed up-front or during the simulation,
/// but only with nondecreasing activation times.
class WaypointMobility final : public mobility::MobilityModel {
 public:
  explicit WaypointMobility(mobility::Vec2 initial_pos) : initial_pos_{initial_pos} {}

  /// `$ns at <at> "$node setdest <dest> <speed>"`. Requires speed > 0 and
  /// `at` not earlier than the previous command.
  void set_destination_at(sim::Time at, mobility::Vec2 dest, double speed) {
    if (speed <= 0.0) throw std::invalid_argument{"WaypointMobility: speed must be > 0"};
    if (!legs_.empty() && at < legs_.back().start)
      throw std::invalid_argument{"WaypointMobility: commands must be time-ordered"};
    const mobility::Vec2 from = position_at(at);
    const sim::Time travel = sim::Time::seconds(mobility::distance(from, dest) / speed);
    legs_.push_back(Leg{at, at + travel, from, dest});
  }

  mobility::Vec2 position_at(sim::Time t) const override {
    const Leg* leg = leg_for(t);
    if (leg == nullptr) return initial_pos_;
    if (t >= leg->arrive) return leg->to;
    const double total = (leg->arrive - leg->start).to_seconds();
    const double frac = total == 0.0 ? 1.0 : (t - leg->start).to_seconds() / total;
    return leg->from + (leg->to - leg->from) * frac;
  }

  mobility::Vec2 velocity_at(sim::Time t) const override {
    const Leg* leg = leg_for(t);
    if (leg == nullptr || t >= leg->arrive) return {};
    const double total = (leg->arrive - leg->start).to_seconds();
    if (total == 0.0) return {};
    return (leg->to - leg->from) / total;
  }

 private:
  /// Motion is a list of legs: from `start` the node is at `from` moving
  /// toward `to`, arriving at `arrive`; after `arrive` it rests at `to`.
  struct Leg {
    sim::Time start;
    sim::Time arrive;
    mobility::Vec2 from;
    mobility::Vec2 to;
  };

  const Leg* leg_for(sim::Time t) const {
    const Leg* found = nullptr;
    for (const auto& leg : legs_) {
      if (leg.start <= t) found = &leg;
      else break;
    }
    return found;
  }

  mobility::Vec2 initial_pos_;
  std::vector<Leg> legs_;
};

}  // namespace eblnet::testing
