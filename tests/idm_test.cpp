// The car-following law itself (mobility/idm.hpp) and the TrafficFlow
// integrator against hand-rolled analytic references: the exact x⁴
// against libm's pow, the law against its textbook form, equilibrium-gap
// fixed points, free-road response, and the engine's semi-implicit Euler
// step reproduced to the last bit outside the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mobility/idm.hpp"
#include "mobility/traffic_flow.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace eblnet::mobility {
namespace {

using sim::Time;

// The law as the textbook writes it, with libm's pow for (v/v0)^4: the
// reference idm_acceleration and the engine must match bit for bit.
double textbook_acceleration(const IdmParams& p, double v, double gap, double dv) {
  const double brake_scale = 2.0 * std::sqrt(p.max_accel_mps2 * p.comfort_decel_mps2);
  const double s_star = p.min_gap_m + std::max(0.0, v * p.time_headway_s + v * dv / brake_scale);
  const double ratio = s_star / std::max(gap, 0.01);
  return p.max_accel_mps2 * (1.0 - std::pow(v / p.desired_speed_mps, 4.0) - ratio * ratio);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// The exact x⁴
// ---------------------------------------------------------------------------

TEST(IdmLaw, Pow4MatchesLibmBitForBit) {
  // pow4 must return the very double libm's pow(x, 4.0) returns: traffic
  // fingerprints depend on it. A quarter of the inputs sit in
  // [0.99, 1.01], where free-flow vehicles put v/v0; the rest span
  // [0, 8), past the warned cap's x of ~4.5.
  sim::Rng rng{20};
  std::uint64_t mismatches = 0;
  const auto check = [&](double x) {
    const double got = pow4(x);
    const double want = std::pow(x, 4.0);
    if (!same_bits(got, want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "pow4(" << x << ") = " << got << ", pow gives " << want;
    }
  };
  constexpr int kInputs = 20'000'000;
  for (int i = 0; i < kInputs; ++i) {
    const double u = rng.uniform();
    check(i % 4 == 0 ? 0.99 + 0.02 * u : 8.0 * u);
  }
  const double root4_2 = std::pow(2.0, 0.25);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, std::numeric_limits<double>::denorm_min(), DBL_MIN, 0x1p-200, 1.0,
        std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0), root4_2,
        std::nextafter(root4_2, 0.0), std::nextafter(root4_2, 2.0), std::sqrt(2.0), 2.0, 1e70,
        1e80, inf, std::numeric_limits<double>::quiet_NaN()}) {
    check(x);
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------------
// The closed-form law
// ---------------------------------------------------------------------------

TEST(IdmLaw, AccelerationMatchesTheTextbookLawBitForBit) {
  // Seeded differential test over the inputs the engine produces: speeds
  // up to 36 m/s against the free speed 33 m/s and the warned cap 8 m/s
  // (x up to 4.5), the calibrated and the warned (doubled) headway, gaps
  // across the 0.01 m clamp including overlaps, closing speeds of both
  // signs.
  sim::Rng rng{7};
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    IdmParams p;
    p.desired_speed_mps = i % 2 == 0 ? 33.0 : 8.0;
    if (i % 4 >= 2) p.time_headway_s *= 2.0;
    const double v = rng.uniform(0.0, 36.0);
    const double gap = i % 3 == 0 ? rng.uniform(-2.0, 0.05) : rng.uniform(0.0, 200.0);
    const double dv = rng.uniform(-15.0, 15.0);
    const double got = idm_acceleration(p, v, gap, dv);
    const double want = textbook_acceleration(p, v, gap, dv);
    if (!same_bits(got, want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "v0=" << p.desired_speed_mps
                    << " T=" << p.time_headway_s << " v=" << v << " gap=" << gap << " dv=" << dv
                    << ": idm_acceleration " << got << ", textbook " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(IdmLaw, EquilibriumGapIsAFixedPointOfTheAcceleration) {
  const IdmParams p;
  for (const double v : {1.0, 5.0, 15.0, 25.0, 30.0}) {
    const double gap = idm_equilibrium_gap(p, v);
    // Analytic form: (s0 + vT) / sqrt(1 - (v/v0)^delta).
    const double free = std::pow(v / p.desired_speed_mps, p.accel_exponent);
    EXPECT_EQ(gap, (p.min_gap_m + v * p.time_headway_s) / std::sqrt(1.0 - free)) << "v=" << v;
    // Zero closing speed at the equilibrium gap: zero acceleration.
    EXPECT_NEAR(idm_acceleration(p, v, gap, 0.0), 0.0, 1e-12) << "v=" << v;
    // The fixed point is attracting from both sides.
    EXPECT_LT(idm_acceleration(p, v, 0.8 * gap, 0.0), 0.0) << "v=" << v;
    EXPECT_GT(idm_acceleration(p, v, 1.25 * gap, 0.0), 0.0) << "v=" << v;
  }
}

TEST(IdmLaw, FreeRoadResponseMatchesAnalyticForm) {
  const IdmParams p;
  // Standing start on an empty road: full throttle minus the (negligible)
  // interaction with a leader 1e9 m ahead.
  EXPECT_NEAR(idm_acceleration(p, 0.0, 1e9, 0.0), p.max_accel_mps2, 1e-9);
  // At the desired speed the free term cancels the drive term exactly.
  EXPECT_NEAR(idm_acceleration(p, p.desired_speed_mps, 1e9, 0.0), 0.0, 1e-9);
  // Above the desired speed the model brakes.
  EXPECT_LT(idm_acceleration(p, 1.1 * p.desired_speed_mps, 1e9, 0.0), 0.0);
  // In between: a * (1 - (v/v0)^delta - (s*/s)^2), bit-for-bit.
  for (const double v : {5.0, 20.0, 30.0}) {
    EXPECT_EQ(idm_acceleration(p, v, 1e9, 0.0), textbook_acceleration(p, v, 1e9, 0.0))
        << "v=" << v;
  }
}

TEST(IdmLaw, DesiredGapGrowsWithClosingSpeedAndFloorsAtMinGap) {
  const IdmParams p;
  const double v = 20.0;
  // Closing on the leader demands a larger gap; falling behind cannot
  // shrink it below s0 (the dynamic term is floored at zero).
  EXPECT_GT(idm_desired_gap(p, v, 5.0), idm_desired_gap(p, v, 0.0));
  EXPECT_GE(idm_desired_gap(p, v, -100.0), p.min_gap_m);
  EXPECT_DOUBLE_EQ(idm_desired_gap(p, 0.0, 0.0), p.min_gap_m);
}

TEST(IdmLaw, OverlapYieldsLargeFiniteBraking) {
  const IdmParams p;
  const double a = idm_acceleration(p, 10.0, -3.0, 0.0);  // unphysical overlap
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_LT(a, -100.0);  // huge braking demand, clamped later by the engine
}

// ---------------------------------------------------------------------------
// The engine vs. a hand-rolled reference integration
// ---------------------------------------------------------------------------

TEST(IdmEngine, MatchesHandRolledSemiImplicitEulerBitForBit) {
  // Two vehicles, no spawning: the engine's tick must equal the textbook
  // update — accelerations from the previous state for *all* vehicles,
  // then v' = max(0, v + a dt), x' = x + v' dt — with zero divergence
  // over hundreds of steps.
  TrafficFlowParams params = TrafficFlowParams::highway(1, 5000.0, 0.0);
  TrafficFlow flow{params, 1};
  const IdmParams& p = params.idm;
  const double dt = params.tick.to_seconds();

  const auto lead = flow.spawn(0, 0, 200.0, 25.0);
  const auto follower = flow.spawn(0, 0, 150.0, 33.0);  // closing fast

  sim::Scheduler sched;
  flow.start(sched);

  double x_l = 200.0, v_l = 25.0, x_f = 150.0, v_f = 33.0;
  for (int step = 1; step <= 400; ++step) {
    // Reference update (synchronous: both accels from the old state).
    const double a_l = textbook_acceleration(p, v_l, 1e9, 0.0);
    const double gap = x_l - x_f - p.vehicle_length_m;
    const double a_f = std::max(textbook_acceleration(p, v_f, gap, v_f - v_l), -9.0);
    v_l = std::max(0.0, v_l + a_l * dt);
    x_l += v_l * dt;
    v_f = std::max(0.0, v_f + a_f * dt);
    x_f += v_f * dt;

    sched.run_until(Time::milliseconds(100 * step));
    ASSERT_EQ(flow.longitudinal_pos(lead), x_l) << "step " << step;
    ASSERT_EQ(flow.speed_of(lead), v_l) << "step " << step;
    ASSERT_EQ(flow.longitudinal_pos(follower), x_f) << "step " << step;
    ASSERT_EQ(flow.speed_of(follower), v_f) << "step " << step;
  }
  // And the pair has relaxed towards car-following (follower no longer
  // faster than its leader by more than a whisker).
  EXPECT_LT(flow.speed_of(follower) - flow.speed_of(lead), 1.0);
}

TEST(IdmEngine, ColumnRelaxesToTheAnalyticEquilibriumGap) {
  // A leader capped at 15 m/s (speed cap via policy) with followers
  // seeded far apart: after a long settling run every follower's gap must
  // converge to idm_equilibrium_gap(15) within a small tolerance.
  TrafficFlowParams params = TrafficFlowParams::highway(1, 100000.0, 0.0);
  TrafficFlow flow{params, 1};
  const IdmParams& p = params.idm;
  const double v_cap = 15.0;

  std::vector<TrafficFlow::VehicleId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(flow.spawn(0, 0, 1000.0 - 120.0 * i, v_cap));
  flow.apply_policy(ids.front(), DrivingPolicy{1.0, v_cap}, Time::max());

  sim::Scheduler sched;
  flow.start(sched);
  sched.run_until(Time::seconds(std::int64_t{600}));

  const double eq = idm_equilibrium_gap(p, v_cap);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const double gap = flow.longitudinal_pos(ids[i - 1]) - flow.longitudinal_pos(ids[i]) -
                       p.vehicle_length_m;
    EXPECT_NEAR(gap, eq, 0.5) << "follower " << i;
    EXPECT_NEAR(flow.speed_of(ids[i]), v_cap, 0.1) << "follower " << i;
  }
}

TEST(IdmEngine, ShockwavePropagatesUpstreamThroughTheColumn) {
  // String response: a column at equilibrium behind a leader that is
  // forced to an emergency stop. Each successive follower must begin
  // slowing later (the disturbance travels rearward) and at a smaller
  // longitudinal position — the stop-and-go shockwave the traffic bench
  // measures, here at unit scale.
  TrafficFlowParams params = TrafficFlowParams::highway(1, 100000.0, 0.0);
  params.slow_speed_mps = 5.0;
  TrafficFlow flow{params, 1};
  const double v = 20.0;
  const double eq = idm_equilibrium_gap(params.idm, v) + params.idm.vehicle_length_m;

  std::vector<TrafficFlow::VehicleId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(flow.spawn(0, 0, 2000.0 - eq * i, v));

  sim::Scheduler sched;
  flow.start(sched);
  sched.run_until(Time::seconds(std::int64_t{5}));

  flow.arm_slow_stats();
  flow.force_stop(ids.front(), 6.0, Time::seconds(std::int64_t{600}));
  sched.run_until(Time::seconds(std::int64_t{120}));

  const auto& events = flow.slow_events();
  ASSERT_EQ(events.size(), ids.size()) << "every vehicle should have slowed";
  // Match slow-onset order to column order: farther back == later + lower.
  std::vector<double> t_by_rank(ids.size(), -1.0), x_by_rank(ids.size(), -1.0);
  for (const auto& e : events) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == e.vehicle) {
        t_by_rank[i] = e.t_s;
        x_by_rank[i] = e.pos_m;
      }
    }
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GT(t_by_rank[i], t_by_rank[i - 1]) << "rank " << i;
    EXPECT_LT(x_by_rank[i], x_by_rank[i - 1]) << "rank " << i;
  }
}

}  // namespace
}  // namespace eblnet::mobility
