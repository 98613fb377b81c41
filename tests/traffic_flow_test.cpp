// TrafficFlow engine contracts: deterministic Poisson spawning, the
// vehicle lifecycle, policy/force-stop overrides, multi-road flows, and
// the read side (`position_of`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobility/traffic_flow.hpp"
#include "sim/scheduler.hpp"

namespace eblnet::mobility {
namespace {

using sim::Time;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TrafficFlowParams small_highway() {
  TrafficFlowParams p = TrafficFlowParams::highway(2, 2000.0, 0.3);
  p.speed_jitter_frac = 0.1;
  return p;
}

/// Runs a fresh flow for `seconds` and keeps it around for inspection.
struct FlowRun {
  explicit FlowRun(TrafficFlowParams params, std::uint64_t seed, double seconds,
               bool with_callbacks = false)
      : flow{std::move(params), seed} {
    if (with_callbacks) {
      flow.set_on_spawn([this](TrafficFlow::VehicleId) { ++spawns_seen; });
      flow.set_on_despawn([this](TrafficFlow::VehicleId) { ++despawns_seen; });
      flow.set_on_hard_brake([this](TrafficFlow::VehicleId) { ++brakes_seen; });
    }
    flow.start(sched);
    sched.run_until(Time::seconds(seconds));
  }
  sim::Scheduler sched;
  TrafficFlow flow;
  int spawns_seen{0}, despawns_seen{0}, brakes_seen{0};
};

void expect_identical_state(const TrafficFlow& a, const TrafficFlow& b) {
  ASSERT_EQ(a.spawned_total(), b.spawned_total());
  ASSERT_EQ(a.active_count(), b.active_count());
  for (TrafficFlow::VehicleId v = 0; v < a.spawned_total(); ++v) {
    EXPECT_EQ(a.active(v), b.active(v)) << "vehicle " << v;
    EXPECT_EQ(a.road_of(v), b.road_of(v)) << "vehicle " << v;
    EXPECT_EQ(a.lane_of(v), b.lane_of(v)) << "vehicle " << v;
    EXPECT_EQ(a.longitudinal_pos(v), b.longitudinal_pos(v)) << "vehicle " << v;
    EXPECT_EQ(a.speed_of(v), b.speed_of(v)) << "vehicle " << v;
  }
}

// ---------------------------------------------------------------------------
// Spawner determinism
// ---------------------------------------------------------------------------

TEST(TrafficFlowSpawner, SameSeedReproducesTheExactTrafficStream) {
  FlowRun a{small_highway(), 42, 120.0};
  FlowRun b{small_highway(), 42, 120.0};
  ASSERT_GT(a.flow.spawned_total(), 20u);
  expect_identical_state(a.flow, b.flow);
}

TEST(TrafficFlowSpawner, DifferentSeedsProduceDifferentStreams) {
  FlowRun a{small_highway(), 42, 120.0};
  FlowRun b{small_highway(), 43, 120.0};
  bool differs = a.flow.spawned_total() != b.flow.spawned_total();
  for (TrafficFlow::VehicleId v = 0;
       !differs && v < std::min(a.flow.spawned_total(), b.flow.spawned_total()); ++v) {
    differs = a.flow.longitudinal_pos(v) != b.flow.longitudinal_pos(v);
  }
  EXPECT_TRUE(differs);
}

TEST(TrafficFlowSpawner, CallbacksObserveButNeverPerturbTheStream) {
  // The closed-loop hooks (the network side) must be pure observers:
  // attaching them cannot move a single spawn draw.
  FlowRun plain{small_highway(), 7, 120.0, /*with_callbacks=*/false};
  FlowRun hooked{small_highway(), 7, 120.0, /*with_callbacks=*/true};
  EXPECT_GT(hooked.spawns_seen, 0);
  expect_identical_state(plain.flow, hooked.flow);
}

TEST(TrafficFlowSpawner, MaxVehiclesIsAHardCap) {
  TrafficFlowParams p = small_highway();
  p.max_vehicles = 10;
  FlowRun r{p, 1, 300.0};
  EXPECT_EQ(r.flow.spawned_total(), 10u);
  EXPECT_EQ(r.flow.spawn(0, 0, 0.0, 0.0), TrafficFlow::kNoVehicle);
}

// ---------------------------------------------------------------------------
// Lifecycle and validation
// ---------------------------------------------------------------------------

TEST(TrafficFlowLifecycle, SpawnValidatesLaneSpeedAndOrdering) {
  TrafficFlowParams p = TrafficFlowParams::highway(1, 1000.0, 0.0);
  TrafficFlow flow{p, 1};
  EXPECT_THROW(flow.spawn(1, 0, 0.0, 10.0), std::invalid_argument);  // no such road
  EXPECT_THROW(flow.spawn(0, 1, 0.0, 10.0), std::invalid_argument);  // no such lane
  EXPECT_THROW(flow.spawn(0, 0, 0.0, 1e6), std::invalid_argument);   // above speed bound
  EXPECT_THROW(flow.spawn(0, 0, 0.0, -1.0), std::invalid_argument);  // negative speed
  EXPECT_THROW(flow.spawn(0, 0, 0.0, kNaN), std::invalid_argument);  // NaN speed
  EXPECT_THROW(flow.spawn(0, 0, kNaN, 10.0), std::invalid_argument);  // NaN position
  flow.spawn(0, 0, 100.0, 10.0);
  // Must enter strictly behind the rearmost vehicle in the column.
  EXPECT_THROW(flow.spawn(0, 0, 100.0, 10.0), std::invalid_argument);
  EXPECT_THROW(flow.spawn(0, 0, 150.0, 10.0), std::invalid_argument);
  EXPECT_NE(flow.spawn(0, 0, 50.0, 10.0), TrafficFlow::kNoVehicle);
}

TEST(TrafficFlowLifecycle, MalformedParamsThrow) {
  EXPECT_THROW(TrafficFlow(TrafficFlowParams{}, 1), std::invalid_argument);  // no roads
  TrafficFlowParams p = TrafficFlowParams::highway(1, 1000.0, 0.2);
  p.tick = Time::zero();
  EXPECT_THROW(TrafficFlow(p, 1), std::invalid_argument);
  p = TrafficFlowParams::highway(1, 1000.0, -0.1);
  EXPECT_THROW(TrafficFlow(p, 1), std::invalid_argument);
  p = TrafficFlowParams::highway(0, 1000.0, 0.2);
  EXPECT_THROW(TrafficFlow(p, 1), std::invalid_argument);
  p = TrafficFlowParams::highway(1, 1000.0, 0.2);
  p.speed_jitter_frac = 1.0;
  EXPECT_THROW(TrafficFlow(p, 1), std::invalid_argument);
}

TEST(TrafficFlowLifecycle, NonFiniteAndDegenerateParamsAreRejectedByName) {
  // A NaN passes every `x <= 0`-style check, and a rate of 1e-300 makes
  // an inter-arrival draw overflow sim::Time's int64 cast. Each bad input
  // must be refused at construction with a message naming its field.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using P = TrafficFlowParams;
  struct Case {
    const char* field;
    void (*edit)(P&);
  };
  const Case cases[] = {
      {"flow_rate_veh_per_s_per_lane", [](P& p) { p.flow_rate_veh_per_s_per_lane = kNaN; }},
      {"flow_rate_veh_per_s_per_lane", [](P& p) { p.flow_rate_veh_per_s_per_lane = 1e-300; }},
      {"flow_rate_veh_per_s_per_lane", [](P& p) { p.flow_rate_veh_per_s_per_lane = kInf; }},
      {"idm.accel_exponent", [](P& p) { p.idm.accel_exponent = kNaN; }},
      {"idm.accel_exponent", [](P& p) { p.idm.accel_exponent = -4.0; }},
      {"idm.accel_exponent", [](P& p) { p.idm.accel_exponent = 0.0; }},
      {"idm.desired_speed_mps", [](P& p) { p.idm.desired_speed_mps = kNaN; }},
      {"idm.time_headway_s", [](P& p) { p.idm.time_headway_s = kNaN; }},
      {"idm.min_gap_m", [](P& p) { p.idm.min_gap_m = kInf; }},
      {"speed_jitter_frac", [](P& p) { p.speed_jitter_frac = kNaN; }},
      {"hard_brake_threshold_mps2", [](P& p) { p.hard_brake_threshold_mps2 = 0.0; }},
      {"slow_speed_mps", [](P& p) { p.slow_speed_mps = kNaN; }},
      {"length_m", [](P& p) { p.roads[0].length_m = kNaN; }},
      {"length_m", [](P& p) { p.roads[0].length_m = kInf; }},
      {"direction", [](P& p) { p.roads[0].direction = {kNaN, 0.0}; }},
      {"origin", [](P& p) { p.roads[0].origin = {0.0, kNaN}; }},
      {"lane_width_m", [](P& p) { p.roads[0].lane_width_m = kNaN; }},
      {"lane_width_m", [](P& p) { p.roads[0].lane_width_m = -3.5; }},
  };
  for (const Case& c : cases) {
    P p = P::highway(1, 1000.0, 0.2);
    c.edit(p);
    try {
      TrafficFlow flow{p, 1};
      ADD_FAILURE() << "accepted a bad " << c.field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(c.field), std::string::npos) << e.what();
    }
  }
  // Zero still disables spawning, and the least accepted rate runs.
  for (const double rate : {0.0, TrafficFlow::kMinFlowRate}) {
    FlowRun r{P::highway(1, 1000.0, rate), 1, 20.0};
    EXPECT_EQ(r.flow.spawned_total(), 0u) << "rate " << rate;
  }
}

TEST(TrafficFlowLifecycle, VehiclesDespawnAtRoadEndAndFreeze) {
  TrafficFlowParams p = TrafficFlowParams::highway(1, 300.0, 0.0);
  TrafficFlow flow{p, 1};
  int despawned = 0;
  flow.set_on_despawn([&](TrafficFlow::VehicleId) { ++despawned; });
  const auto v = flow.spawn(0, 0, 0.0, 30.0);
  sim::Scheduler sched;
  flow.start(sched);
  sched.run_until(Time::seconds(std::int64_t{60}));

  EXPECT_EQ(despawned, 1);
  EXPECT_FALSE(flow.active(v));
  EXPECT_EQ(flow.active_count(), 0u);
  EXPECT_DOUBLE_EQ(flow.longitudinal_pos(v), 300.0);  // frozen at the road end
  // The read side keeps answering (frozen), far beyond the despawn.
  const Vec2 later = flow.position_of(v, Time::seconds(std::int64_t{120}));
  EXPECT_DOUBLE_EQ(later.x, 300.0);
}

// ---------------------------------------------------------------------------
// Overrides: force_stop and driving policies
// ---------------------------------------------------------------------------

TEST(TrafficFlowOverrides, ForceStopBrakesHoldsAndReleases) {
  TrafficFlowParams p = TrafficFlowParams::highway(1, 100000.0, 0.0);
  TrafficFlow flow{p, 1};
  const auto v = flow.spawn(0, 0, 1000.0, 30.0);
  sim::Scheduler sched;
  flow.start(sched);

  EXPECT_THROW(flow.force_stop(v, 0.0, Time::seconds(std::int64_t{10})), std::invalid_argument);
  EXPECT_THROW(flow.force_stop(v, 9.5, Time::seconds(std::int64_t{10})), std::invalid_argument);
  EXPECT_THROW(flow.force_stop(v, kNaN, Time::seconds(std::int64_t{10})), std::invalid_argument);

  int hard_brakes = 0;
  flow.set_on_hard_brake([&](TrafficFlow::VehicleId) { ++hard_brakes; });
  flow.force_stop(v, 6.0, Time::seconds(std::int64_t{30}));
  sched.run_until(Time::seconds(std::int64_t{10}));
  EXPECT_EQ(flow.speed_of(v), 0.0);  // 30 m/s at 6 m/s^2: stopped in 5 s
  EXPECT_EQ(hard_brakes, 1);         // one rising edge, despite many braking ticks
  const double held_at = flow.longitudinal_pos(v);

  sched.run_until(Time::seconds(std::int64_t{29}));
  EXPECT_DOUBLE_EQ(flow.longitudinal_pos(v), held_at);  // held at rest

  sched.run_until(Time::seconds(std::int64_t{60}));
  EXPECT_GT(flow.speed_of(v), 10.0);  // released: free road, accelerating again
}

TEST(TrafficFlowOverrides, PolicyWidensHeadwayAndCapsSpeedUntilExpiry) {
  TrafficFlowParams p = TrafficFlowParams::highway(1, 100000.0, 0.0);
  TrafficFlow flow{p, 1};
  const auto v = flow.spawn(0, 0, 0.0, 30.0);
  sim::Scheduler sched;
  flow.start(sched);

  EXPECT_THROW(flow.apply_policy(v, DrivingPolicy{0.5, 10.0}, Time::seconds(std::int64_t{5})),
               std::invalid_argument);
  EXPECT_THROW(flow.apply_policy(v, DrivingPolicy{2.0, -1.0}, Time::seconds(std::int64_t{5})),
               std::invalid_argument);
  EXPECT_THROW(flow.apply_policy(v, DrivingPolicy{kNaN, 8.0}, Time::seconds(std::int64_t{5})),
               std::invalid_argument);
  EXPECT_THROW(flow.apply_policy(v, DrivingPolicy{2.0, kNaN}, Time::seconds(std::int64_t{5})),
               std::invalid_argument);

  flow.apply_policy(v, DrivingPolicy{2.0, 8.0}, Time::seconds(std::int64_t{40}));
  sched.run_until(Time::seconds(std::int64_t{30}));
  EXPECT_LE(flow.speed_of(v), 8.0 + 0.2);  // capped (plus one tick of slack)

  sched.run_until(Time::seconds(std::int64_t{90}));
  EXPECT_GT(flow.speed_of(v), 25.0);  // expired: back to the spawn v0
}

// ---------------------------------------------------------------------------
// Multi-road flows
// ---------------------------------------------------------------------------

TEST(TrafficFlowRoads, EveryRoadOfATwoRoadFlowSpawnsVehicles) {
  // A second road heading north, crossing the highway's eastbound one.
  TrafficFlowParams p = TrafficFlowParams::highway(1, 1000.0, 0.1);
  RoadSpec north = p.roads[0];
  north.origin = {500.0, -500.0};
  north.direction = {0.0, 1.0};
  p.roads.push_back(north);
  FlowRun r{p, 5, 180.0};
  EXPECT_GT(r.flow.spawned_total(), 10u);
  bool road0 = false, road1 = false;
  for (TrafficFlow::VehicleId v = 0; v < r.flow.spawned_total(); ++v) {
    road0 |= r.flow.road_of(v) == 0;
    road1 |= r.flow.road_of(v) == 1;
  }
  EXPECT_TRUE(road0);
  EXPECT_TRUE(road1);
}

// ---------------------------------------------------------------------------
// The read side (position_of)
// ---------------------------------------------------------------------------

TEST(TrafficFlowReadSide, ViewExtrapolatesLinearlyBetweenTicks) {
  TrafficFlowParams p = TrafficFlowParams::highway(2, 10000.0, 0.0);
  TrafficFlow flow{p, 1};
  const auto v = flow.spawn(0, 1, 500.0, 20.0);
  sim::Scheduler sched;
  flow.start(sched);
  sched.run_until(Time::seconds(std::int64_t{10}));

  const Vec2 at_tick = flow.position_of(v, Time::seconds(std::int64_t{10}));
  const double speed = flow.speed_of(v);
  EXPECT_GT(speed, 0.0);
  // Lane 1 of a +x road sits one and a half lane widths off the axis.
  EXPECT_DOUBLE_EQ(at_tick.y, 1.5 * p.roads[0].lane_width_m);
  // Mid-tick queries extrapolate with the current speed along the road.
  const Time mid = Time::seconds(std::int64_t{10}) + Time::milliseconds(40);
  const Vec2 at_mid = flow.position_of(v, mid);
  EXPECT_DOUBLE_EQ(at_mid.x, at_tick.x + speed * 0.04);
  EXPECT_DOUBLE_EQ(at_mid.y, at_tick.y);
}

TEST(TrafficFlowReadSide, SpeedNeverExceedsTheDeclaredBound) {
  TrafficFlowParams p = small_highway();
  TrafficFlow flow{p, 9};
  const double bound = flow.max_speed_bound_mps();
  EXPECT_DOUBLE_EQ(bound, p.idm.desired_speed_mps * (1.0 + p.speed_jitter_frac) +
                              p.idm.max_accel_mps2 * p.tick.to_seconds());
  sim::Scheduler sched;
  flow.start(sched);
  for (int s = 10; s <= 200; s += 10) {
    sched.run_until(Time::seconds(static_cast<std::int64_t>(s)));
    for (TrafficFlow::VehicleId v = 0; v < flow.spawned_total(); ++v) {
      ASSERT_LE(flow.speed_of(v), bound) << "vehicle " << v << " at t=" << s;
    }
  }
}

}  // namespace
}  // namespace eblnet::mobility
