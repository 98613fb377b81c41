#include "mobility/traffic_flow.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eblnet::mobility {

void validate_policy(const DrivingPolicy& policy, const char* what) {
  if (!(std::isfinite(policy.headway_scale) && policy.headway_scale >= 1.0))
    throw std::invalid_argument{std::string{what} + ".headway_scale must be finite and >= 1"};
  if (!(policy.speed_cap_mps >= 0.0))
    throw std::invalid_argument{std::string{what} + ".speed_cap_mps must be >= 0"};
}

TrafficFlowParams TrafficFlowParams::highway(int lanes, double length_m,
                                             double flow_veh_per_s_per_lane) {
  TrafficFlowParams p;
  RoadSpec road;
  road.origin = {0.0, 0.0};
  road.direction = {1.0, 0.0};
  road.length_m = length_m;
  road.lanes = lanes;
  p.roads.push_back(road);
  p.flow_rate_veh_per_s_per_lane = flow_veh_per_s_per_lane;
  return p;
}

TrafficFlow::TrafficFlow(TrafficFlowParams params, std::uint64_t seed)
    : params_{std::move(params)} {
  const auto bad = [](const char* what) {
    throw std::invalid_argument{std::string{"TrafficFlow: "} + what};
  };
  // Every comparison is written so that NaN fails it.
  const auto positive = [&](double value, const char* what) {
    if (!(std::isfinite(value) && value > 0.0)) bad(what);
  };
  if (params_.roads.empty()) bad("at least one road required");
  if (params_.tick <= sim::Time::zero()) bad("tick must be > 0");
  const double rate = params_.flow_rate_veh_per_s_per_lane;
  if (!(rate == 0.0 || (std::isfinite(rate) && rate >= kMinFlowRate)))
    bad("flow_rate_veh_per_s_per_lane must be 0 or finite and >= 1e-8");
  if (!(params_.speed_jitter_frac >= 0.0 && params_.speed_jitter_frac < 1.0))
    bad("speed_jitter_frac must be in [0, 1)");
  positive(params_.idm.desired_speed_mps, "idm.desired_speed_mps must be finite and > 0");
  positive(params_.idm.time_headway_s, "idm.time_headway_s must be finite and > 0");
  positive(params_.idm.max_accel_mps2, "idm.max_accel_mps2 must be finite and > 0");
  positive(params_.idm.comfort_decel_mps2, "idm.comfort_decel_mps2 must be finite and > 0");
  positive(params_.idm.min_gap_m, "idm.min_gap_m must be finite and > 0");
  positive(params_.idm.vehicle_length_m, "idm.vehicle_length_m must be finite and > 0");
  positive(params_.idm.accel_exponent, "idm.accel_exponent must be finite and > 0");
  positive(params_.hard_brake_threshold_mps2,
           "hard_brake_threshold_mps2 must be finite and > 0");
  if (!(std::isfinite(params_.slow_speed_mps) && params_.slow_speed_mps >= 0.0))
    bad("slow_speed_mps must be finite and >= 0");
  if (params_.speed_sample_every_ticks <= 0) bad("speed_sample_every_ticks must be > 0");

  // Dedicated spawn stream, decorrelated from the env's main stream by a
  // fixed domain tag so network-side draws never perturb arrivals.
  sim::Rng master{sim::mix_seed(seed, 0xEB17'AFF1'C000'0001ULL)};
  std::size_t total_lanes = 0;
  for (auto& r : params_.roads) {
    if (r.lanes <= 0) bad("road must have >= 1 lane");
    if (!(std::isfinite(r.origin.x) && std::isfinite(r.origin.y)))
      bad("road origin must be finite");
    positive(r.direction.length(), "road direction must be finite and non-zero");
    positive(r.length_m, "road length_m must be finite and > 0");
    positive(r.lane_width_m, "road lane_width_m must be finite and > 0");
    r.direction = r.direction.normalized();
    lane_base_.push_back(total_lanes);
    total_lanes += static_cast<std::size_t>(r.lanes);
  }
  lanes_.resize(total_lanes);
  const double mean_gap_s = params_.flow_rate_veh_per_s_per_lane > 0.0
                                ? 1.0 / params_.flow_rate_veh_per_s_per_lane
                                : 0.0;
  for (auto& ls : lanes_) {
    ls.rng = master.split();
    if (mean_gap_s > 0.0) ls.next_spawn = sim::Time::seconds(ls.rng.exponential(mean_gap_s));
  }
}

double TrafficFlow::max_speed_bound_mps() const {
  return params_.idm.desired_speed_mps * (1.0 + params_.speed_jitter_frac) +
         params_.idm.max_accel_mps2 * params_.tick.to_seconds();
}

void TrafficFlow::start(sim::Scheduler& sched) {
  if (tick_event_ != sim::kInvalidEventId) return;
  sched_ = &sched;
  last_step_ = sched.now();
  const sim::Time first = sched.now() + params_.tick;
  if (first > params_.end) return;
  tick_event_ = sched.schedule_at(first, [this] { step(*sched_); });
}

TrafficFlow::VehicleId TrafficFlow::spawn(std::uint16_t road, std::uint16_t lane, double pos_m,
                                          double speed_mps) {
  if (road >= params_.roads.size() ||
      lane >= static_cast<std::uint16_t>(params_.roads[road].lanes))
    throw std::invalid_argument{"TrafficFlow::spawn: no such lane"};
  if (!(speed_mps >= 0.0 && speed_mps <= max_speed_bound_mps()))
    throw std::invalid_argument{"TrafficFlow::spawn: speed outside the declared bound"};
  if (!std::isfinite(pos_m))
    throw std::invalid_argument{"TrafficFlow::spawn: position must be finite"};
  auto& col = lane_state(road, lane).column;
  if (!col.empty() && pos_m >= pos_[col.back()])
    throw std::invalid_argument{"TrafficFlow::spawn: must enter behind the rearmost vehicle"};
  if (params_.max_vehicles != 0 && pos_.size() >= params_.max_vehicles) return kNoVehicle;

  const auto id = static_cast<VehicleId>(pos_.size());
  pos_.push_back(pos_m);
  speed_.push_back(speed_mps);
  accel_.push_back(0.0);
  v0_.push_back(params_.idm.desired_speed_mps);
  road_.push_back(road);
  lane_.push_back(lane);
  active_.push_back(1);
  braking_.push_back(0);
  forced_.push_back(0);
  forced_decel_.push_back(0.0);
  forced_until_.push_back(sim::Time::zero());
  policy_.push_back(DrivingPolicy{});
  policy_until_.push_back(sim::Time::zero());
  slowed_.push_back(0);
  col.push_back(id);
  ++active_count_;
  if (on_spawn_) on_spawn_(id);
  return id;
}

void TrafficFlow::apply_policy(VehicleId v, DrivingPolicy policy, sim::Time until) {
  validate_policy(policy, "TrafficFlow::apply_policy: policy");
  policy_[v] = policy;
  policy_until_[v] = until;
}

void TrafficFlow::force_stop(VehicleId v, double decel_mps2, sim::Time until) {
  if (!(decel_mps2 > 0.0 && decel_mps2 <= kMaxPhysicalDecel))
    throw std::invalid_argument{"TrafficFlow: force_stop decel must be in (0, 9] m/s^2"};
  forced_[v] = 1;
  forced_decel_[v] = decel_mps2;
  forced_until_[v] = until;
}

void TrafficFlow::spawn_arrivals(sim::Time now) {
  if (params_.flow_rate_veh_per_s_per_lane <= 0.0) return;
  const double mean_gap_s = 1.0 / params_.flow_rate_veh_per_s_per_lane;
  const IdmParams& idm = params_.idm;
  for (std::size_t r = 0; r < params_.roads.size(); ++r) {
    for (int l = 0; l < params_.roads[r].lanes; ++l) {
      auto& ls = lane_state(static_cast<std::uint16_t>(r), static_cast<std::uint16_t>(l));
      while (ls.next_spawn <= now) {
        if (params_.max_vehicles != 0 && pos_.size() >= params_.max_vehicles) return;
        double entry_speed = -1.0;
        if (!ls.column.empty()) {
          const VehicleId rear = ls.column.back();
          // A blocked entrance queues the arrival (retried next tick
          // without a fresh draw), so the arrival pattern stays a pure
          // function of the spawn stream.
          const double rear_v = speed_[rear];
          if (pos_[rear] < idm.vehicle_length_m + idm.min_gap_m + rear_v * idm.time_headway_s)
            break;
          entry_speed = rear_v;
        }
        const double jitter = params_.speed_jitter_frac;
        const double v_des =
            jitter > 0.0 ? idm.desired_speed_mps * ls.rng.uniform(1.0 - jitter, 1.0 + jitter)
                         : idm.desired_speed_mps;
        const double v_in = entry_speed < 0.0 ? v_des : std::min(v_des, entry_speed);
        const VehicleId id = spawn(static_cast<std::uint16_t>(r), static_cast<std::uint16_t>(l),
                                   0.0, v_in);
        if (id == kNoVehicle) return;
        v0_[id] = v_des;
        ls.next_spawn += sim::Time::seconds(ls.rng.exponential(mean_gap_s));
      }
    }
  }
}

void TrafficFlow::compute_accels(sim::Time now) {
  const IdmParams& base = params_.idm;
  const double brake_scale = idm_brake_scale(base);
  brake_edges_.clear();
  for (std::size_t r = 0; r < params_.roads.size(); ++r) {
    const RoadSpec& road = params_.roads[r];
    for (int l = 0; l < road.lanes; ++l) {
      const auto& col =
          lane_state(static_cast<std::uint16_t>(r), static_cast<std::uint16_t>(l)).column;
      for (std::size_t i = 0; i < col.size(); ++i) {
        const VehicleId id = col[i];
        const double v = speed_[id];
        double gap = 1e9;
        double dv = 0.0;
        if (i > 0) {
          const VehicleId lead = col[i - 1];
          gap = pos_[lead] - pos_[id] - base.vehicle_length_m;
          dv = v - speed_[lead];
        }
        double v0 = v0_[id];
        double headway = base.time_headway_s;
        if (policy_until_[id] > now) {
          headway *= policy_[id].headway_scale;
          v0 = std::min(v0, policy_[id].speed_cap_mps);
        }
        // IDM's interaction term diverges as the gap closes; the clamp
        // keeps one bad tick from poisoning the hard-brake edge detector
        // and the integrator alike.
        double a = std::max(idm_acceleration(base, v0, headway, brake_scale, v, gap, dv),
                            -kMaxPhysicalDecel);
        if (forced_[id] != 0) {
          if (now >= forced_until_[id]) {
            forced_[id] = 0;
          } else {
            a = v > 0.0 ? std::min(a, -forced_decel_[id]) : 0.0;
          }
        }
        accel_[id] = a;
        if (a <= -params_.hard_brake_threshold_mps2) {
          if (braking_[id] == 0) {
            braking_[id] = 1;
            brake_edges_.push_back(id);
          }
        } else if (a > -0.5 * params_.hard_brake_threshold_mps2) {
          braking_[id] = 0;
        }
      }
    }
  }
}

void TrafficFlow::integrate_and_cull(sim::Time now) {
  const double dt = params_.tick.to_seconds();
  const double now_s = now.to_seconds();
  for (std::size_t r = 0; r < params_.roads.size(); ++r) {
    const RoadSpec& road = params_.roads[r];
    for (int l = 0; l < road.lanes; ++l) {
      auto& col = lane_state(static_cast<std::uint16_t>(r), static_cast<std::uint16_t>(l)).column;
      for (const VehicleId id : col) {
        // Semi-implicit Euler: speed first, then position with the new
        // speed. All accelerations came from the previous tick's state,
        // so the update is synchronous across every column.
        const double v_new = std::max(0.0, speed_[id] + accel_[id] * dt);
        pos_[id] += v_new * dt;
        speed_[id] = v_new;
        if (slow_stats_armed_ && slowed_[id] == 0 && v_new < params_.slow_speed_mps) {
          slowed_[id] = 1;
          slow_events_.push_back({id, now_s, pos_[id], static_cast<std::uint16_t>(r),
                                  static_cast<std::uint16_t>(l)});
        }
      }
      while (!col.empty() && pos_[col.front()] >= road.length_m) {
        const VehicleId gone = col.front();
        col.erase(col.begin());
        pos_[gone] = road.length_m;
        speed_[gone] = 0.0;
        accel_[gone] = 0.0;
        active_[gone] = 0;
        --active_count_;
        if (on_despawn_) on_despawn_(gone);
      }
    }
  }
}

void TrafficFlow::step(sim::Scheduler& sched) {
  const sim::Time now = sched.now();
  spawn_arrivals(now);
  compute_accels(now);
  // Edges fire after the full sweep so a callback (e.g. EBL warning
  // origination) observes a consistent acceleration field; any policy it
  // installs takes effect from the *next* tick.
  for (const VehicleId id : brake_edges_) {
    if (on_hard_brake_) on_hard_brake_(id);
  }
  integrate_and_cull(now);
  last_step_ = now;
  ++ticks_;
  if (ticks_ % static_cast<std::uint64_t>(params_.speed_sample_every_ticks) == 0) {
    double sum = 0.0;
    std::uint32_t n = 0;
    for (const auto& ls : lanes_) {
      for (const VehicleId id : ls.column) {
        sum += speed_[id];
        ++n;
      }
    }
    speed_series_.push_back({now.to_seconds(), n > 0 ? sum / n : 0.0, n});
  }
  const sim::Time next = now + params_.tick;
  if (next <= params_.end) {
    tick_event_ = sched.schedule_at(next, [this] { step(*sched_); });
  } else {
    tick_event_ = sim::kInvalidEventId;
  }
}

Vec2 TrafficFlow::position_of(VehicleId v, sim::Time t) const {
  const RoadSpec& r = params_.roads[road_[v]];
  double s = pos_[v];
  if (active_[v] != 0 && t > last_step_) s += speed_[v] * (t - last_step_).to_seconds();
  s = std::min(s, r.length_m);
  const Vec2 perp{-r.direction.y, r.direction.x};
  const double offset = (static_cast<double>(lane_[v]) + 0.5) * r.lane_width_m;
  return r.origin + r.direction * s + perp * offset;
}

Vec2 TrafficFlow::velocity_of(VehicleId v) const {
  if (active_[v] == 0) return {};
  return params_.roads[road_[v]].direction * speed_[v];
}

std::shared_ptr<MobilityModel> TrafficFlow::make_mobility(VehicleId v) {
  return std::make_shared<IdmVehicle>(this, v);
}

}  // namespace eblnet::mobility
