#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "mobility/idm.hpp"
#include "mobility/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace eblnet::mobility {

/// One directed road: vehicles travel from `origin` along `direction`
/// for `length_m` metres across `lanes` parallel lanes (no lane
/// changes — each lane is an independent IDM column, which models
/// per-lane capacity without overtaking dynamics).
struct RoadSpec {
  Vec2 origin{};
  Vec2 direction{1.0, 0.0};  ///< normalized at construction
  double length_m{10'000.0};
  int lanes{1};
  double lane_width_m{3.5};
};

/// Configuration for a `TrafficFlow` engine.
struct TrafficFlowParams {
  std::vector<RoadSpec> roads;
  IdmParams idm{};
  /// Mean vehicle arrival rate per lane (Poisson process; inter-arrival
  /// times are exponential draws from the engine's dedicated spawn
  /// stream). Zero disables spawning — vehicles come from `spawn()`.
  double flow_rate_veh_per_s_per_lane{0.2};
  /// Per-vehicle desired-speed heterogeneity: each vehicle's v0 is drawn
  /// uniformly from idm.desired_speed_mps · [1 − jitter, 1 + jitter].
  double speed_jitter_frac{0.0};
  sim::Time tick{sim::Time::milliseconds(100)};  ///< integration step
  sim::Time end{sim::Time::max()};               ///< last tick fires at or before this
  /// Stop allocating once this many vehicles have ever spawned
  /// (0 = unbounded). Spawning resumes never — it is a hard cap.
  std::size_t max_vehicles{0};
  /// Accelerations at or below −threshold fire the hard-brake edge
  /// callback (the hook EBL origination listens on).
  double hard_brake_threshold_mps2{4.0};
  /// Speeds below this count as "slowed" for shockwave statistics.
  double slow_speed_mps{5.0};
  /// Record one mean-speed sample every this many ticks.
  int speed_sample_every_ticks{10};

  /// Straight multi-lane highway along +x.
  static TrafficFlowParams highway(int lanes, double length_m, double flow_veh_per_s_per_lane);
};

/// Driving-policy override applied to a vehicle by the reactive-braking
/// hook: scales the IDM time headway (larger = more cautious gap) and
/// caps the desired speed. Expires at an absolute time, after which the
/// vehicle reverts to its spawn parameters.
struct DrivingPolicy {
  double headway_scale{1.0};
  double speed_cap_mps{std::numeric_limits<double>::infinity()};
};

/// Throws std::invalid_argument unless `policy` is no more aggressive
/// than the baseline: a finite headway_scale >= 1 and a speed cap >= 0
/// (infinity = no cap). NaN fails both. The message names the field,
/// prefixed with `what` (e.g. "TrafficScenario: warned_policy").
void validate_policy(const DrivingPolicy& policy, const char* what);

/// One "vehicle slowed below threshold" record for shockwave analysis.
struct SlowEvent {
  std::uint32_t vehicle;
  double t_s;      ///< first time speed dropped below slow_speed_mps
  double pos_m;    ///< longitudinal position at that moment
  std::uint16_t road;
  std::uint16_t lane;
};

/// Periodic aggregate sample of the whole flow.
struct SpeedSample {
  double t_s;
  double mean_speed_mps;
  std::uint32_t active;
};

/// Closed-loop car-following traffic engine: the stateful side of the
/// mobility split. Its vehicle state evolves by simulation events (a
/// fixed integration tick scheduled through the shared event queue), so
/// message reception may change a vehicle's future trajectory, which a
/// closed-form `MobilityModel` cannot express. Vehicles carry a dense
/// spawn-ordered id (never reused; a despawned vehicle deactivates and
/// freezes in place). Each (road, lane) pair is an independent
/// front-to-back ordered IDM column, stored lane-major: the lane keeps
/// its vehicles' position, speed, acceleration, desired speed and id in
/// column order, so the tick streams through contiguous arrays, and two
/// id-indexed arrays map an id to its lane and slot. Fields the tick
/// rarely reads (policy, forced stop, brake latch, slowed flag) stay
/// indexed by id behind per-lane summaries.
///
/// Contract with the channel's spatial grid: the grid's cull slack is
/// derived from a speed bound. Scripted models are covered by the static
/// `ChannelParams::grid_max_speed_mps`; this engine declares its own
/// bound via `max_speed_bound_mps()`, which the scenario feeds to
/// `phy::Channel::raise_speed_bound` *before* vehicles start moving, so
/// an accelerating vehicle can never outrun its baked cull radius.
///
/// Integration is a synchronous semi-implicit Euler step on a fixed
/// tick: every vehicle's acceleration is computed from the *previous*
/// tick's state, then all speeds and positions advance together — update
/// order within a tick cannot leak into the dynamics, so results are
/// independent of column iteration order.
///
/// Determinism: spawning draws from a dedicated Rng derived from the
/// seed passed at construction (splitmix-mixed, one child stream per
/// lane in fixed lane order), so network-side draws (e.g. rebroadcast
/// jitter, which varies with market penetration) never perturb the
/// arrival pattern — sweeps compare identical traffic.
///
/// Read side: `position_of(id, t)` extrapolates linearly from the last
/// tick.
class TrafficFlow {
 public:
  using VehicleId = std::uint32_t;
  static constexpr VehicleId kNoVehicle = UINT32_MAX;

  /// Hard physical braking floor (~0.9 g): the law's output is clamped
  /// to it, and `force_stop` accepts decelerations up to it.
  static constexpr double kMaxPhysicalDecel = 9.0;
  /// The least non-zero arrival rate. `Rng::exponential` returns at
  /// most ~36.7 x its mean, so every inter-arrival draw stays below
  /// ~3.7e9 s, well inside `sim::Time`.
  static constexpr double kMinFlowRate = 1e-8;

  /// `seed` feeds the dedicated spawn stream only. Throws
  /// std::invalid_argument, naming the field, on malformed params: no
  /// roads, a non-positive tick or lane count, a road whose origin is not
  /// finite, whose direction is not finite and non-zero, or whose length
  /// or lane width is not finite and > 0, an IDM field that is not
  /// finite and > 0, a flow rate that is not 0 or a finite value >=
  /// kMinFlowRate, jitter outside [0, 1), a hard-brake threshold that is
  /// not finite and > 0, or a slow speed that is not finite and >= 0.
  TrafficFlow(TrafficFlowParams params, std::uint64_t seed);

  TrafficFlow(const TrafficFlow&) = delete;
  TrafficFlow& operator=(const TrafficFlow&) = delete;

  /// Schedule the first integration tick; a no-op while a tick is
  /// pending. Ticks reschedule themselves until `params().end`.
  void start(sim::Scheduler& sched);
  /// Upper bound on any vehicle's speed over the whole run, valid from
  /// construction: v0·(1 + jitter) plus one tick of full-throttle Euler
  /// overshoot — IDM free acceleration is positive only below v0, so a
  /// vehicle can exceed its desired speed by at most a·dt.
  double max_speed_bound_mps() const;

  const TrafficFlowParams& params() const noexcept { return params_; }

  // -- vehicle lifecycle -----------------------------------------------
  /// Manually inject a vehicle at finite longitudinal position `pos_m`
  /// moving at `speed_mps` in [0, max_speed_bound_mps()] (kNoVehicle if
  /// the max_vehicles cap is hit). The caller must keep columns ordered:
  /// `pos_m` must be strictly behind the rearmost vehicle already in
  /// (road, lane).
  VehicleId spawn(std::uint16_t road, std::uint16_t lane, double pos_m, double speed_mps);

  std::size_t spawned_total() const noexcept { return slot_.size(); }
  std::size_t active_count() const noexcept { return active_count_; }
  bool active(VehicleId v) const { return slot_[v] >= home(v).front; }
  double longitudinal_pos(VehicleId v) const { return home(v).pos[slot_[v]]; }
  double speed_of(VehicleId v) const { return home(v).speed[slot_[v]]; }
  std::uint16_t road_of(VehicleId v) const { return home(v).road; }
  std::uint16_t lane_of(VehicleId v) const { return home(v).lane; }

  /// World-frame position at `t`, extrapolating from the last tick
  /// (clamped to the road extent; frozen once despawned).
  Vec2 position_of(VehicleId v, sim::Time t) const;

  // -- closed-loop hooks -------------------------------------------------
  /// Fired (synchronously, inside the tick) when a vehicle enters /
  /// permanently leaves the road, and on the rising edge of hard braking.
  void set_on_spawn(std::function<void(VehicleId)> cb) { on_spawn_ = std::move(cb); }
  void set_on_despawn(std::function<void(VehicleId)> cb) { on_despawn_ = std::move(cb); }
  void set_on_hard_brake(std::function<void(VehicleId)> cb) { on_hard_brake_ = std::move(cb); }

  /// Install a policy override on `v` until absolute time `until` (the
  /// reactive-braking hook: a received EBL warning widens the target gap
  /// and caps speed *before* the driver can see brake lights). Throws
  /// what `validate_policy` throws.
  void apply_policy(VehicleId v, DrivingPolicy policy, sim::Time until);

  /// Force `v` to brake at `decel` in (0, kMaxPhysicalDecel] to a
  /// standstill and hold until the absolute time `until` (the staged
  /// incident that seeds a shockwave).
  void force_stop(VehicleId v, double decel_mps2, sim::Time until);

  // -- shockwave / congestion statistics ---------------------------------
  /// Start recording first-slow events (call when the incident begins so
  /// pre-incident noise — spawn transients — is excluded).
  void arm_slow_stats() { slow_stats_armed_ = true; }
  const std::vector<SlowEvent>& slow_events() const noexcept { return slow_events_; }
  const std::vector<SpeedSample>& speed_series() const noexcept { return speed_series_; }
  std::uint64_t ticks_executed() const noexcept { return ticks_; }

 private:
  /// One (road, lane) column. Slots [front, size) are the vehicles on
  /// the road, front (largest pos) to back; a despawn advances `front`,
  /// so the slots before it keep departed vehicles' frozen state.
  struct Lane {
    std::vector<double> pos;  ///< longitudinal metres along the road
    std::vector<double> speed;
    std::vector<double> accel;
    std::vector<double> v0;   ///< per-vehicle desired speed
    std::vector<VehicleId> id;
    std::size_t front{0};
    std::uint16_t road{0};
    std::uint16_t lane{0};
    // Summaries of the id-indexed fields below: a lane whose summaries
    // are clear needs none of them in the tick.
    sim::Time policy_until{};  ///< latest expiry of a policy applied here
    std::uint32_t forced{0};   ///< vehicles on the road with forced_ set
    std::uint32_t latched{0};  ///< vehicles on the road with braking_ set
    sim::Time next_spawn{};
    sim::Rng rng;              ///< dedicated per-lane spawn stream
  };

  void step(sim::Scheduler& sched);
  void spawn_arrivals(sim::Time now);
  void compute_accels(sim::Time now);
  void integrate_and_cull(sim::Time now);
  Lane& lane_state(std::uint16_t road, std::uint16_t lane) {
    return lanes_[lane_base_[road] + lane];
  }
  const Lane& home(VehicleId v) const { return lanes_[lane_index_[v]]; }

  TrafficFlowParams params_;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> lane_base_;  ///< road -> first index into lanes_

  // Per-vehicle state indexed by VehicleId (spawn order).
  std::vector<std::uint32_t> lane_index_;  ///< index into lanes_
  std::vector<std::uint32_t> slot_;        ///< slot within that lane
  std::vector<std::uint8_t> braking_;      ///< hard-brake edge latch
  std::vector<std::uint8_t> forced_;       ///< force_stop override live
  std::vector<double> forced_decel_;
  std::vector<sim::Time> forced_until_;
  std::vector<DrivingPolicy> policy_;
  std::vector<sim::Time> policy_until_;
  std::vector<std::uint8_t> slowed_;       ///< already recorded a SlowEvent

  std::function<void(VehicleId)> on_spawn_;
  std::function<void(VehicleId)> on_despawn_;
  std::function<void(VehicleId)> on_hard_brake_;

  std::vector<SlowEvent> slow_events_;
  std::vector<SpeedSample> speed_series_;
  std::vector<VehicleId> brake_edges_;  ///< per-tick scratch, reused
  std::vector<std::size_t> fallback_;   ///< per-lane scratch: kernel slots pow4 left
  bool slow_stats_armed_{false};

  sim::Scheduler* sched_{nullptr};
  sim::EventId tick_event_{sim::kInvalidEventId};
  sim::Time last_step_{};
  std::uint64_t ticks_{0};
  std::size_t active_count_{0};
};

/// One lane-major column as TrafficFlow's follower kernels read it: the
/// vehicle in slot i follows the one in slot i − 1. `fallback` has room
/// for one entry per follower.
struct FollowerColumn {
  const double* pos;
  const double* speed;
  const double* v0;
  double* accel;
  std::size_t* fallback;
};

/// Where a follower kernel stopped: `next` is the first slot it did not
/// evaluate, with fewer than two followers left from there, and
/// `fallbacks` the number of slots it put on the fallback list.
struct FollowerPass {
  std::size_t next;
  std::size_t fallbacks;
};

/// TrafficFlow's follower loop for δ = 4, a vector of followers a step:
/// from slot `first` (past the column's leader) on, while a whole
/// vector fits before `end`, accel[i] is `idm_accelerationv` at v0[i],
/// the calibration's headway, speed[i], gap pos[i − 1] − pos[i] − L and
/// closing speed speed[i] − speed[i − 1], floored at
/// −TrafficFlow::kMaxPhysicalDecel; each slot whose lane was not exact
/// goes on the fallback list, in slot order, without a branch. The
/// caller evaluates the fallbacks and the slots from `next` on with
/// `idm_acceleration`, and applies driving policies itself.
using FollowerKernel = FollowerPass (*)(const IdmParams& p, double brake_scale,
                                        const FollowerColumn& column, std::size_t first,
                                        std::size_t end);

/// Two followers at a time in 16-byte vectors (SSE2 on x86-64): the
/// kernel every host can run.
FollowerPass idm_followers_lanes2(const IdmParams& p, double brake_scale,
                                  const FollowerColumn& column, std::size_t first,
                                  std::size_t end);
#if defined(__x86_64__)
/// Four followers at a time in 32-byte vectors, then a remaining pair
/// through the two-lane step; built for AVX2 (and not FMA, whose
/// contractions would round differently from the scalar law). Call only
/// where `idm_follower_kernel()` returns it.
FollowerPass idm_followers_lanes4(const IdmParams& p, double brake_scale,
                                  const FollowerColumn& column, std::size_t first,
                                  std::size_t end);
#endif
/// The kernel TrafficFlow's tick runs: `idm_followers_lanes4` on an
/// x86-64 host whose CPU reports AVX2, else `idm_followers_lanes2`.
/// Decided once per process.
FollowerKernel idm_follower_kernel();

}  // namespace eblnet::mobility
