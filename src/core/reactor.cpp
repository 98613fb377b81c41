#include "core/reactor.hpp"

#include <cmath>
#include <stdexcept>

namespace eblnet::core {

EblBrakeReactor::EblBrakeReactor(net::Env& env, std::function<void()> policy, sim::Time reaction)
    : env_{env},
      policy_{std::move(policy)},
      reaction_{reaction},
      actuate_timer_{env.scheduler(), [this] {
                       braked_at_ = env_.now();
                       policy_();
                     }} {
  if (!policy_) throw std::invalid_argument{"EblBrakeReactor: policy required"};
  if (reaction < sim::Time::zero())
    throw std::invalid_argument{"EblBrakeReactor: reaction must be >= 0"};
}

EblBrakeReactor::EblBrakeReactor(net::Env& env, transport::TcpSink& sink,
                                 std::function<void()> policy, sim::Time reaction)
    : EblBrakeReactor{env, std::move(policy), reaction} {
  sink.set_data_callback([this](const net::Packet&) { notify(); });
}

namespace {

// Validates before the delegated constructor hooks the sink, so a throw
// can never leave a data callback pointing at a dead reactor.
std::function<void()> make_brake_policy(std::shared_ptr<mobility::Vehicle> vehicle, double decel) {
  if (!vehicle) throw std::invalid_argument{"EblBrakeReactor: vehicle required"};
  if (!(std::isfinite(decel) && decel > 0.0))
    throw std::invalid_argument{"EblBrakeReactor: decel must be finite and > 0"};
  return [vehicle = std::move(vehicle), decel] { vehicle->brake(decel); };
}

}  // namespace

EblBrakeReactor::EblBrakeReactor(net::Env& env, transport::TcpSink& sink,
                                 std::shared_ptr<mobility::Vehicle> vehicle, double decel,
                                 sim::Time reaction)
    : EblBrakeReactor{env, sink, make_brake_policy(std::move(vehicle), decel), reaction} {}

void EblBrakeReactor::notify() {
  if (triggered_) return;
  triggered_ = true;
  notified_at_ = env_.now();
  actuate_timer_.schedule_in(reaction_);
}

void EblBrakeReactor::reset() {
  triggered_ = false;
  actuate_timer_.cancel();
}

CollisionMonitor::CollisionMonitor(net::Env& env,
                                   std::vector<std::shared_ptr<mobility::Vehicle>> column,
                                   double min_gap, sim::Time sample_interval)
    : env_{env},
      column_{std::move(column)},
      min_gap_{min_gap},
      timer_{env.scheduler(), [this] { sample(); }} {
  if (column_.size() < 2) throw std::invalid_argument{"CollisionMonitor: need >= 2 vehicles"};
  if (sample_interval <= sim::Time::zero())
    throw std::invalid_argument{"CollisionMonitor: sample interval must be > 0"};
  lane_ = env.scheduler().lane(sample_interval);
}

void CollisionMonitor::start() {
  if (running_) return;
  running_ = true;
  timer_.schedule_in(lane_);
}

void CollisionMonitor::stop() {
  running_ = false;
  timer_.cancel();
}

void CollisionMonitor::sample() {
  if (!running_ || collided_) return;
  const sim::Time now = env_.now();
  for (std::size_t i = 1; i < column_.size(); ++i) {
    const double gap =
        mobility::distance(column_[i - 1]->position_at(now), column_[i]->position_at(now));
    if (gap < min_observed_gap_) min_observed_gap_ = gap;
    if (gap <= min_gap_) {
      collided_ = true;
      collision_time_ = now;
      follower_ = i;
      return;  // stop sampling: the episode is decided
    }
  }
  timer_.schedule_in(lane_);
}

}  // namespace eblnet::core
