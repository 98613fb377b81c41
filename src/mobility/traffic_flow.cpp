#include "mobility/traffic_flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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
  for (std::size_t r = 0; r < params_.roads.size(); ++r) {
    for (int l = 0; l < params_.roads[r].lanes; ++l) {
      Lane& ln = lanes_[lane_base_[r] + static_cast<std::size_t>(l)];
      ln.road = static_cast<std::uint16_t>(r);
      ln.lane = static_cast<std::uint16_t>(l);
    }
  }
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
  Lane& ln = lane_state(road, lane);
  if (ln.front < ln.id.size() && pos_m >= ln.pos.back())
    throw std::invalid_argument{"TrafficFlow::spawn: must enter behind the rearmost vehicle"};
  if (params_.max_vehicles != 0 && slot_.size() >= params_.max_vehicles) return kNoVehicle;

  const auto id = static_cast<VehicleId>(slot_.size());
  lane_index_.push_back(static_cast<std::uint32_t>(lane_base_[road] + lane));
  slot_.push_back(static_cast<std::uint32_t>(ln.id.size()));
  ln.pos.push_back(pos_m);
  ln.speed.push_back(speed_mps);
  ln.accel.push_back(0.0);
  ln.v0.push_back(params_.idm.desired_speed_mps);
  ln.id.push_back(id);
  braking_.push_back(0);
  forced_.push_back(0);
  forced_decel_.push_back(0.0);
  forced_until_.push_back(sim::Time::zero());
  policy_.push_back(DrivingPolicy{});
  policy_until_.push_back(sim::Time::zero());
  slowed_.push_back(0);
  ++active_count_;
  if (on_spawn_) on_spawn_(id);
  return id;
}

void TrafficFlow::apply_policy(VehicleId v, DrivingPolicy policy, sim::Time until) {
  validate_policy(policy, "TrafficFlow::apply_policy: policy");
  policy_[v] = policy;
  policy_until_[v] = until;
  Lane& ln = lanes_[lane_index_[v]];
  ln.policy_until = std::max(ln.policy_until, until);
}

void TrafficFlow::force_stop(VehicleId v, double decel_mps2, sim::Time until) {
  if (!(decel_mps2 > 0.0 && decel_mps2 <= kMaxPhysicalDecel))
    throw std::invalid_argument{"TrafficFlow: force_stop decel must be in (0, 9] m/s^2"};
  if (forced_[v] == 0 && active(v)) ++lanes_[lane_index_[v]].forced;
  forced_[v] = 1;
  forced_decel_[v] = decel_mps2;
  forced_until_[v] = until;
}

void TrafficFlow::spawn_arrivals(sim::Time now) {
  if (params_.flow_rate_veh_per_s_per_lane <= 0.0) return;
  const double mean_gap_s = 1.0 / params_.flow_rate_veh_per_s_per_lane;
  const IdmParams& idm = params_.idm;
  for (Lane& ln : lanes_) {
    while (ln.next_spawn <= now) {
      if (params_.max_vehicles != 0 && slot_.size() >= params_.max_vehicles) return;
      double entry_speed = -1.0;
      if (ln.front < ln.id.size()) {
        // A blocked entrance queues the arrival (retried next tick
        // without a fresh draw), so the arrival pattern stays a pure
        // function of the spawn stream.
        const double rear_v = ln.speed.back();
        if (ln.pos.back() < idm.vehicle_length_m + idm.min_gap_m + rear_v * idm.time_headway_s)
          break;
        entry_speed = rear_v;
      }
      const double jitter = params_.speed_jitter_frac;
      const double v_des =
          jitter > 0.0 ? idm.desired_speed_mps * ln.rng.uniform(1.0 - jitter, 1.0 + jitter)
                       : idm.desired_speed_mps;
      const double v_in = entry_speed < 0.0 ? v_des : std::min(v_des, entry_speed);
      const VehicleId id = spawn(ln.road, ln.lane, 0.0, v_in);
      if (id == kNoVehicle) return;
      ln.v0[slot_[id]] = v_des;
      ln.next_spawn += sim::Time::seconds(ln.rng.exponential(mean_gap_s));
    }
  }
}

namespace {

/// The follower kernel's loop over V-wide steps, resumed from `pass`.
/// Always inlined, so each kernel compiles it for its own target.
template <class V>
[[gnu::always_inline]] inline void follower_steps(const IdmParams& law, double brake_scale,
                                                  const FollowerColumn& column, std::size_t end,
                                                  FollowerPass& pass) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const double* const pos = column.pos;
  const double* const speed = column.speed;
  const double* const v0s = column.v0;
  double* const accel = column.accel;
  std::size_t* const fallback = column.fallback;
  const V decel_floor = V{} - TrafficFlow::kMaxPhysicalDecel;
  std::size_t i = pass.next;
  std::size_t fallbacks = pass.fallbacks;
  for (; i + kLanes <= end; i += kLanes) {
    V pos_ahead, pos_here, v_ahead, v, v0;
    std::memcpy(&pos_ahead, pos + i - 1, sizeof(V));
    std::memcpy(&pos_here, pos + i, sizeof(V));
    std::memcpy(&v_ahead, speed + i - 1, sizeof(V));
    std::memcpy(&v, speed + i, sizeof(V));
    std::memcpy(&v0, v0s + i, sizeof(V));
    const IdmLanes<V> a =
        idm_accelerationv(law, v0, law.time_headway_s, brake_scale, v,
                          pos_ahead - pos_here - law.vehicle_length_m, v - v_ahead);
    const V floored = a.accel < decel_floor ? decel_floor : a.accel;
    std::memcpy(accel + i, &floored, sizeof(V));
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kLanes; ++k) {
      fallback[fallbacks] = i + k;
      fallbacks += a.exact[k] == 0;
    }
  }
  pass = {i, fallbacks};
}

}  // namespace

FollowerPass idm_followers_lanes2(const IdmParams& p, double brake_scale,
                                  const FollowerColumn& column, std::size_t first,
                                  std::size_t end) {
  // A copy: the kernel's stores cannot alias a local whose address stays
  // in this function, so the calibration stays in registers.
  const IdmParams law = p;
  FollowerPass pass{first, 0};
  follower_steps<Lanes2>(law, brake_scale, column, end, pass);
  return pass;
}

#if defined(__x86_64__)
// AVX2 only: GCC contracts a·b + c into an FMA (-ffp-contract=fast, its
// default) wherever FMA is enabled, and that would round differently
// from the scalar law the fallbacks and the tests use.
[[gnu::target("avx2")]] FollowerPass idm_followers_lanes4(const IdmParams& p, double brake_scale,
                                                          const FollowerColumn& column,
                                                          std::size_t first, std::size_t end) {
  const IdmParams law = p;
  FollowerPass pass{first, 0};
  follower_steps<Lanes4>(law, brake_scale, column, end, pass);
  follower_steps<Lanes2>(law, brake_scale, column, end, pass);
  return pass;
}
#endif

FollowerKernel idm_follower_kernel() {
#if defined(__x86_64__)
  static const FollowerKernel kernel = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &idm_followers_lanes4 : &idm_followers_lanes2;
  }();
  return kernel;
#else
  return &idm_followers_lanes2;
#endif
}

void TrafficFlow::compute_accels(sim::Time now) {
  const IdmParams& base = params_.idm;
  const double brake_scale = idm_brake_scale(base);
  const double threshold = params_.hard_brake_threshold_mps2;
  // δ = 4 sends followers through the vector kernel.
  const FollowerKernel kernel = base.accel_exponent == 4.0 ? idm_follower_kernel() : nullptr;
  brake_edges_.clear();
  for (Lane& ln : lanes_) {
    const std::size_t front = ln.front;
    const std::size_t end = ln.id.size();
    if (front == end) continue;
    const double* const pos = ln.pos.data();
    const double* const speed = ln.speed.data();
    const double* const v0s = ln.v0.data();
    double* const accel = ln.accel.data();
    const bool policies = ln.policy_until > now;
    // The scalar law for one slot, policy included. IDM's interaction
    // term diverges as the gap closes; the clamp keeps one bad tick from
    // poisoning the hard-brake edge detector and the integrator alike.
    const auto scalar = [&](std::size_t i) {
      const double v = speed[i];
      double gap = 1e9;
      double dv = 0.0;
      if (i > front) {
        gap = pos[i - 1] - pos[i] - base.vehicle_length_m;
        dv = v - speed[i - 1];
      }
      double v0 = v0s[i];
      double headway = base.time_headway_s;
      if (policies && policy_until_[ln.id[i]] > now) {
        const DrivingPolicy& policy = policy_[ln.id[i]];
        headway *= policy.headway_scale;
        v0 = std::min(v0, policy.speed_cap_mps);
      }
      accel[i] = std::max(idm_acceleration(base, v0, headway, brake_scale, v, gap, dv),
                          -kMaxPhysicalDecel);
    };

    // Followers a vector at a time, policies ignored.
    FollowerPass pass{front + 1, 0};
    if (kernel != nullptr) {
      if (fallback_.size() < end - front) fallback_.resize(end - front);
      pass = kernel(base, brake_scale, {pos, speed, v0s, accel, fallback_.data()}, front + 1, end);
    }
    // The scalar pass: the leader on free road, the followers the kernel
    // left (every follower when δ ≠ 4), the fallbacks, and every kernel
    // vehicle under a live policy.
    scalar(front);
    for (std::size_t i = pass.next; i < end; ++i) scalar(i);
    for (std::size_t k = 0; k < pass.fallbacks; ++k) scalar(fallback_[k]);
    if (policies) {
      for (std::size_t j = front + 1; j < pass.next; ++j) {
        if (policy_until_[ln.id[j]] > now) scalar(j);
      }
    }

    // Forced stops and brake edges, in column order.
    if (ln.forced == 0 && ln.latched == 0) {
      for (std::size_t j = front; j < end; ++j) {
        if (accel[j] <= -threshold) {
          const VehicleId id = ln.id[j];
          braking_[id] = 1;
          ++ln.latched;
          brake_edges_.push_back(id);
        }
      }
      continue;
    }
    for (std::size_t j = front; j < end; ++j) {
      const VehicleId id = ln.id[j];
      double a = accel[j];
      if (forced_[id] != 0) {
        if (now >= forced_until_[id]) {
          forced_[id] = 0;
          --ln.forced;
        } else {
          a = speed[j] > 0.0 ? std::min(a, -forced_decel_[id]) : 0.0;
          accel[j] = a;
        }
      }
      if (a <= -threshold) {
        if (braking_[id] == 0) {
          braking_[id] = 1;
          ++ln.latched;
          brake_edges_.push_back(id);
        }
      } else if (a > -0.5 * threshold && braking_[id] != 0) {
        braking_[id] = 0;
        --ln.latched;
      }
    }
  }
}

void TrafficFlow::integrate_and_cull(sim::Time now) {
  const double dt = params_.tick.to_seconds();
  const double now_s = now.to_seconds();
  for (Lane& ln : lanes_) {
    const std::size_t end = ln.id.size();
    double* const pos = ln.pos.data();
    double* const speed = ln.speed.data();
    const double* const accel = ln.accel.data();
    // Semi-implicit Euler: speed first, then position with the new
    // speed, two vehicles at a time. All accelerations came from the
    // previous tick's state, so the update is synchronous across every
    // column.
    std::size_t j = ln.front;
    for (; j + 1 < end; j += 2) {
      Lanes2 x, v, a;
      std::memcpy(&x, pos + j, sizeof x);
      std::memcpy(&v, speed + j, sizeof v);
      std::memcpy(&a, accel + j, sizeof a);
      const Lanes2 v_raw = v + a * dt;
      const Lanes2 v_new = Lanes2{} < v_raw ? v_raw : Lanes2{};
      x += v_new * dt;
      std::memcpy(pos + j, &x, sizeof x);
      std::memcpy(speed + j, &v_new, sizeof v_new);
    }
    if (j < end) {
      const double v_new = std::max(0.0, speed[j] + accel[j] * dt);
      pos[j] += v_new * dt;
      speed[j] = v_new;
    }
    if (slow_stats_armed_) {
      for (j = ln.front; j < end; ++j) {
        if (speed[j] < params_.slow_speed_mps && slowed_[ln.id[j]] == 0) {
          slowed_[ln.id[j]] = 1;
          slow_events_.push_back({ln.id[j], now_s, pos[j], ln.road, ln.lane});
        }
      }
    }
    const double length = params_.roads[ln.road].length_m;
    while (ln.front < ln.id.size() && ln.pos[ln.front] >= length) {
      const std::size_t k = ln.front++;
      const VehicleId gone = ln.id[k];
      ln.pos[k] = length;
      ln.speed[k] = 0.0;
      ln.accel[k] = 0.0;
      if (forced_[gone] != 0) --ln.forced;
      if (braking_[gone] != 0) --ln.latched;
      --active_count_;
      if (on_despawn_) on_despawn_(gone);
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
    for (const Lane& ln : lanes_) {
      for (std::size_t j = ln.front; j < ln.id.size(); ++j) {
        sum += ln.speed[j];
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
  const Lane& ln = home(v);
  const std::size_t k = slot_[v];
  const RoadSpec& r = params_.roads[ln.road];
  double s = ln.pos[k];
  if (k >= ln.front && t > last_step_) s += ln.speed[k] * (t - last_step_).to_seconds();
  s = std::min(s, r.length_m);
  const Vec2 perp{-r.direction.y, r.direction.x};
  const double offset = (static_cast<double>(ln.lane) + 0.5) * r.lane_width_m;
  return r.origin + r.direction * s + perp * offset;
}

}  // namespace eblnet::mobility
