// The car-following law itself (mobility/idm.hpp) and the TrafficFlow
// integrator against hand-rolled analytic references: the exact x⁴
// against libm's pow, the scalar, two-lane and four-lane law against
// its textbook form, the tick's follower kernels against the scalar
// law, equilibrium-gap fixed points, free-road response, the engine's
// semi-implicit Euler step reproduced to the last bit outside the
// engine, and the engine in lockstep with an id-indexed reference over
// seeded configs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mobility/idm.hpp"
#include "mobility/traffic_flow.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace eblnet::mobility {
namespace {

using sim::Time;

// The law as the textbook writes it, with libm's pow for (v/v0)^δ: the
// reference idm_acceleration and the engine must match bit for bit.
double textbook_acceleration(const IdmParams& p, double v0, double headway_s, double v,
                             double gap, double dv) {
  const double brake_scale = 2.0 * std::sqrt(p.max_accel_mps2 * p.comfort_decel_mps2);
  const double s_star = p.min_gap_m + std::max(0.0, v * headway_s + v * dv / brake_scale);
  const double ratio = s_star / std::max(gap, 0.01);
  return p.max_accel_mps2 * (1.0 - std::pow(v / v0, p.accel_exponent) - ratio * ratio);
}

double textbook_acceleration(const IdmParams& p, double v, double gap, double dv) {
  return textbook_acceleration(p, p.desired_speed_mps, p.time_headway_s, v, gap, dv);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Up to four drivers for the lane-generic law: per-lane desired speed,
// speed, gap and closing speed, one headway, and the law's output.
struct LawLanes {
  double v0[4]{}, v[4]{}, gap[4]{}, dv[4]{};
  double accel[4]{};
  std::int64_t exact[4]{};
};

// The law on the first sizeof(V) / 8 lanes of `in`. Arrays in and out,
// so that no vector crosses a call into the AVX2-built function below.
template <class V>
[[gnu::always_inline]] inline void run_law(const IdmParams& p, double headway_s, LawLanes& in) {
  V v0, v, gap, dv;
  std::memcpy(&v0, in.v0, sizeof(V));
  std::memcpy(&v, in.v, sizeof(V));
  std::memcpy(&gap, in.gap, sizeof(V));
  std::memcpy(&dv, in.dv, sizeof(V));
  const IdmLanes<V> a = idm_accelerationv(p, v0, headway_s, idm_brake_scale(p), v, gap, dv);
  std::memcpy(in.accel, &a.accel, sizeof(V));
  std::memcpy(in.exact, &a.exact, sizeof(V));
}

// The four-lane law runs where the tick runs it: built for AVX2, on a
// host that has it (the tick's dispatch says whether this one does).
#if defined(__x86_64__)
[[gnu::target("avx2")]] void run_law4(const IdmParams& p, double headway_s, LawLanes& in) {
  run_law<Lanes4>(p, headway_s, in);
}

bool host_runs_lanes4() { return idm_follower_kernel() == &idm_followers_lanes4; }
#else
bool host_runs_lanes4() { return false; }
#endif

const char* laws_run() {
  return host_runs_lanes4() ? "scalar, Lanes2 and Lanes4 (AVX2)"
                            : "scalar and Lanes2 (no AVX2 on this host: Lanes4 not run)";
}

// ---------------------------------------------------------------------------
// The exact x⁴
// ---------------------------------------------------------------------------

TEST(IdmLaw, Pow4MatchesLibmBitForBit) {
  // pow4 must return the very double libm's pow(x, 4.0) returns: traffic
  // fingerprints depend on it. A quarter of the inputs sit in
  // [0.99, 1.01], where free-flow vehicles put v/v0; the rest span
  // [0, 8), past the warned cap's x of ~4.5. Consecutive inputs also go
  // through the two-lane law two at a time and the four-lane law four
  // at a time as v/v0 = x/1, whose per-lane guard must be pow4's
  // fast-path condition.
  sim::Rng rng{20};
  std::uint64_t mismatches = 0;
  std::uint64_t guard_mismatches = 0;
  const IdmParams calibration;
  const bool lanes4 = host_runs_lanes4();
  LawLanes group;
  int grouped = 0;
  const auto check_guard = [&](LawLanes& in, int lanes, const char* law) {
    for (int lane = 0; lane < lanes; ++lane) {
      const double x = in.v[lane];
      const bool fast = pow4_split(x).exact;
      if ((in.exact[lane] != 0) != fast && ++guard_mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << "x=" << x << " in lane " << lane << ": " << law
                      << " guard " << in.exact[lane] << ", pow4 fast path " << fast;
      }
    }
  };
  const auto check_group = [&] {
    for (int half = 0; half < 2; ++half) {
      LawLanes pair;
      for (int lane = 0; lane < 2; ++lane) {
        pair.v0[lane] = 1.0;
        pair.v[lane] = group.v[2 * half + lane];
        pair.gap[lane] = 1e9;
      }
      run_law<Lanes2>(calibration, calibration.time_headway_s, pair);
      check_guard(pair, 2, "two-lane");
    }
#if defined(__x86_64__)
    if (lanes4) {
      for (int lane = 0; lane < 4; ++lane) {
        group.v0[lane] = 1.0;
        group.gap[lane] = 1e9;
        group.dv[lane] = 0.0;
      }
      run_law4(calibration, calibration.time_headway_s, group);
      check_guard(group, 4, "four-lane");
    }
#endif
  };
  const auto check = [&](double x) {
    const double got = pow4(x);
    const double want = std::pow(x, 4.0);
    if (!same_bits(got, want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "pow4(" << x << ") = " << got << ", pow gives " << want;
    }
    group.v[grouped++] = x;
    if (grouped == 4) {
      check_group();
      grouped = 0;
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
  while (grouped != 0) check(group.v[grouped - 1]);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(guard_mismatches, 0u);
  std::cout << "laws checked: " << laws_run() << "\n";
}

// ---------------------------------------------------------------------------
// The closed-form law
// ---------------------------------------------------------------------------

TEST(IdmLaw, AccelerationMatchesTheTextbookLawBitForBit) {
  // Seeded differential test over the inputs the engine produces: speeds
  // up to 36 m/s against the free speed 33 m/s and the warned cap 8 m/s
  // (x up to 4.5), the calibrated and the warned (doubled) headway, gaps
  // across the 0.01 m clamp including overlaps, closing speeds of both
  // signs. Each pair of consecutive inputs (they share a headway) also
  // goes through the two-lane law in both lane orders, and two pairs
  // with the same headway through the four-lane law in both orders,
  // with idm_acceleration as the fallback where a lane is not exact, as
  // TrafficFlow uses it.
  struct Input {
    IdmParams p;
    double v, gap, dv;
  };
  std::uint64_t mismatches = 0;
  const auto report = [&](const Input& in, double got, const char* what) {
    const double want = textbook_acceleration(in.p, in.v, in.gap, in.dv);
    if (!same_bits(got, want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "v0=" << in.p.desired_speed_mps
                    << " T=" << in.p.time_headway_s << " v=" << in.v << " gap=" << in.gap
                    << " dv=" << in.dv << ": " << what << " " << got << ", textbook " << want;
    }
  };
  std::uint64_t fallbacks[2] = {0, 0};
  // Runs lanes.size() inputs (2 or 4, one headway) through that law.
  const auto check_lanes = [&](std::initializer_list<const Input*> lanes, const char* what) {
    const IdmParams& p = (*lanes.begin())->p;
    LawLanes in;
    int lane = 0;
    for (const Input* x : lanes) {
      in.v0[lane] = x->p.desired_speed_mps;
      in.v[lane] = x->v;
      in.gap[lane] = x->gap;
      in.dv[lane] = x->dv;
      ++lane;
    }
#if defined(__x86_64__)
    if (lane == 4) {
      run_law4(p, p.time_headway_s, in);
    } else {
      run_law<Lanes2>(p, p.time_headway_s, in);
    }
#else
    run_law<Lanes2>(p, p.time_headway_s, in);
#endif
    lane = 0;
    for (const Input* x : lanes) {
      fallbacks[lane / 2] += in.exact[lane] == 0 ? 1 : 0;
      report(*x, in.exact[lane] != 0 ? in.accel[lane] : idm_acceleration(x->p, x->v, x->gap, x->dv),
             what);
      ++lane;
    }
  };
  const bool lanes4 = host_runs_lanes4();
  sim::Rng rng{7};
  Input previous{};
  // The last pair seen per headway (calibrated, warned), for the
  // four-lane law.
  Input pending[2][2]{};
  bool has_pending[2] = {false, false};
  for (int i = 0; i < 1'000'000; ++i) {
    Input in;
    in.p.desired_speed_mps = i % 2 == 0 ? 33.0 : 8.0;
    if (i % 4 >= 2) in.p.time_headway_s *= 2.0;
    in.v = rng.uniform(0.0, 36.0);
    in.gap = i % 3 == 0 ? rng.uniform(-2.0, 0.05) : rng.uniform(0.0, 200.0);
    in.dv = rng.uniform(-15.0, 15.0);
    report(in, idm_acceleration(in.p, in.v, in.gap, in.dv), "idm_acceleration");
    if (i % 2 == 1) {
      check_lanes({&previous, &in}, "two-lane law");
      check_lanes({&in, &previous}, "two-lane law, swapped");
      const int headway = i % 4 >= 2 ? 1 : 0;
      if (lanes4 && has_pending[headway]) {
        const Input& a = pending[headway][0];
        const Input& b = pending[headway][1];
        check_lanes({&a, &b, &previous, &in}, "four-lane law");
        check_lanes({&in, &previous, &b, &a}, "four-lane law, reversed");
      }
      pending[headway][0] = previous;
      pending[headway][1] = in;
      has_pending[headway] = true;
    }
    previous = in;
  }
  EXPECT_EQ(mismatches, 0u);
  // The fallback ran: about one lane in ten, in both halves of a vector.
  EXPECT_GT(fallbacks[0], 0u);
  if (lanes4) {
    EXPECT_GT(fallbacks[1], 0u);
  }
  std::cout << "laws checked: " << laws_run() << "\n";
}

TEST(IdmLaw, FollowerKernelsMatchTheScalarLawBitForBit) {
  // Seeded columns of 1–11 vehicles, so that the kernels stop with every
  // tail length: gaps across the 0.01 m clamp and overlaps, speeds at 0,
  // near v0 and above it, and two desired speeds. The two-lane and the
  // four-lane kernel must write the same accelerations and the same
  // fallback list; after the scalar pass (the leader, the slots the
  // kernel left, the fallbacks), every follower must hold the scalar
  // law floored at -9 m/s², bit for bit.
  const IdmParams p;
  const double brake_scale = idm_brake_scale(p);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const bool lanes4 = host_runs_lanes4();
  sim::Rng rng{35};
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t tails[2] = {0, 0};
  for (int column = 0; column < 20'000; ++column) {
    const std::size_t n = 1 + static_cast<std::size_t>(column % 11);
    std::vector<double> pos(n), speed(n), v0(n);
    for (std::size_t i = 0; i < n; ++i) {
      v0[i] = rng.uniform() < 0.5 ? 33.0 : 8.0;
      const double u = rng.uniform();
      speed[i] = u < 0.2    ? 0.0
                 : u < 0.6  ? v0[i] * rng.uniform(0.99, 1.01)
                 : u < 0.75 ? v0[i] * rng.uniform(1.0, 1.1)
                            : rng.uniform(0.0, 36.0);
      const double gap = rng.uniform() < 0.3 ? rng.uniform(-2.0, 0.05) : rng.uniform(0.0, 200.0);
      pos[i] = i == 0 ? 5000.0 : pos[i - 1] - p.vehicle_length_m - gap;
    }
    const auto scalar = [&](std::size_t i, std::vector<double>& accel) {
      const double gap = i == 0 ? 1e9 : pos[i - 1] - pos[i] - p.vehicle_length_m;
      const double dv = i == 0 ? 0.0 : speed[i] - speed[i - 1];
      accel[i] = std::max(idm_acceleration(p, v0[i], p.time_headway_s, brake_scale, speed[i], gap,
                                           dv),
                          -TrafficFlow::kMaxPhysicalDecel);
    };
    std::vector<double> accel2(n, nan), accel4(n, nan);
    std::vector<std::size_t> fallback2(n), fallback4(n);
    const FollowerPass pass2 =
        idm_followers_lanes2(p, brake_scale,
                             {pos.data(), speed.data(), v0.data(), accel2.data(), fallback2.data()},
                             1, n);
    ASSERT_LT(n - std::min(pass2.next, n), 2u) << "column of " << n;
#if defined(__x86_64__)
    if (lanes4) {
      const FollowerPass pass4 = idm_followers_lanes4(
          p, brake_scale, {pos.data(), speed.data(), v0.data(), accel4.data(), fallback4.data()},
          1, n);
      ASSERT_EQ(pass4.next, pass2.next) << "column of " << n;
      ASSERT_EQ(pass4.fallbacks, pass2.fallbacks) << "column of " << n;
      for (std::size_t k = 0; k < pass2.fallbacks; ++k)
        ASSERT_EQ(fallback4[k], fallback2[k]) << "column of " << n << ", fallback " << k;
      for (std::size_t i = 0; i < n; ++i) {
        if (!same_bits(accel4[i], accel2[i]) && ++mismatches <= 10)
          ADD_FAILURE() << std::hexfloat << "column of " << n << ", slot " << i
                        << ": four-lane kernel " << accel4[i] << ", two-lane " << accel2[i];
      }
    }
#endif
    // The scalar pass, as TrafficFlow::compute_accels runs it.
    scalar(0, accel2);
    for (std::size_t i = pass2.next; i < n; ++i) scalar(i, accel2);
    for (std::size_t k = 0; k < pass2.fallbacks; ++k) scalar(fallback2[k], accel2);
    fallbacks += pass2.fallbacks;
    ++tails[pass2.next < n ? 1 : 0];
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalar(i, want);
      if (!same_bits(accel2[i], want[i]) && ++mismatches <= 10)
        ADD_FAILURE() << std::hexfloat << "column of " << n << ", slot " << i << ": kernel "
                      << accel2[i] << ", scalar law " << want[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(fallbacks, 0u);
  // Columns ending on a whole vector and on an odd follower both ran.
  EXPECT_GT(tails[0], 0u);
  EXPECT_GT(tails[1], 0u);
  std::cout << "kernels checked: "
            << (lanes4 ? "two-lane and four-lane (AVX2)"
                       : "two-lane (no AVX2 on this host: four-lane not run)")
            << "\n";
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

// ---------------------------------------------------------------------------
// The engine vs. an id-indexed reference, over seeded configs
// ---------------------------------------------------------------------------

/// TrafficFlow's contract written the plain way: state in one record
/// per vehicle id, each column a vector of ids (front to back) that
/// loses its front by erase, and the textbook law with
/// std::pow(v / v0, δ). Spawning follows the engine's documented
/// streams: a master Rng mixed from the seed under the spawn tag, one
/// child stream per lane in lane order.
class ReferenceFlow {
 public:
  ReferenceFlow(const TrafficFlowParams& params, std::uint64_t seed) : p_{params} {
    sim::Rng master{sim::mix_seed(seed, 0xEB17'AFF1'C000'0001ULL)};
    for (std::size_t r = 0; r < p_.roads.size(); ++r) {
      for (int l = 0; l < p_.roads[r].lanes; ++l) {
        Lane lane{static_cast<std::uint16_t>(r), static_cast<std::uint16_t>(l), {}, {},
                  master.split()};
        if (p_.flow_rate_veh_per_s_per_lane > 0.0)
          lane.next_spawn =
              Time::seconds(lane.rng.exponential(1.0 / p_.flow_rate_veh_per_s_per_lane));
        lanes_.push_back(std::move(lane));
      }
    }
  }

  struct Vehicle {
    double pos, speed, accel{0.0}, v0;
    std::uint16_t road, lane;
    bool active{true}, braking{false}, forced{false}, slowed{false};
    double forced_decel{0.0};
    Time forced_until{};
    DrivingPolicy policy{};
    Time policy_until{};
  };

  void step(Time now) {
    brake_edges.clear();
    despawns.clear();
    spawn_arrivals(now);
    compute_accels(now);
    integrate_and_cull(now);
    if (++ticks_ % static_cast<std::uint64_t>(p_.speed_sample_every_ticks) == 0) {
      double sum = 0.0;
      std::uint32_t n = 0;
      for (const Lane& lane : lanes_) {
        for (const auto id : lane.column) {
          sum += v[id].speed;
          ++n;
        }
      }
      speed_series.push_back({now.to_seconds(), n > 0 ? sum / n : 0.0, n});
    }
  }

  void apply_policy(std::uint32_t id, DrivingPolicy policy, Time until) {
    v[id].policy = policy;
    v[id].policy_until = until;
  }
  void force_stop(std::uint32_t id, double decel, Time until) {
    v[id].forced = true;
    v[id].forced_decel = decel;
    v[id].forced_until = until;
  }
  /// Active columns of odd and even length (two or more vehicles).
  void count_columns(std::uint64_t& odd, std::uint64_t& even) const {
    for (const Lane& lane : lanes_) {
      if (lane.column.size() < 2) continue;
      ++(lane.column.size() % 2 == 1 ? odd : even);
    }
  }

  std::vector<Vehicle> v;  ///< by id
  std::vector<std::uint32_t> brake_edges, despawns;  ///< this tick's, in order
  std::vector<SlowEvent> slow_events;
  std::vector<SpeedSample> speed_series;
  bool slow_stats_armed{false};

 private:
  struct Lane {
    std::uint16_t road, lane;
    std::vector<std::uint32_t> column;
    Time next_spawn;
    sim::Rng rng;
  };

  void spawn_arrivals(Time now) {
    if (p_.flow_rate_veh_per_s_per_lane <= 0.0) return;
    const IdmParams& idm = p_.idm;
    for (Lane& lane : lanes_) {
      while (lane.next_spawn <= now) {
        if (p_.max_vehicles != 0 && v.size() >= p_.max_vehicles) return;
        double entry_speed = -1.0;
        if (!lane.column.empty()) {
          const Vehicle& rear = v[lane.column.back()];
          if (rear.pos < idm.vehicle_length_m + idm.min_gap_m + rear.speed * idm.time_headway_s)
            break;
          entry_speed = rear.speed;
        }
        const double jitter = p_.speed_jitter_frac;
        const double v_des =
            jitter > 0.0 ? idm.desired_speed_mps * lane.rng.uniform(1.0 - jitter, 1.0 + jitter)
                         : idm.desired_speed_mps;
        Vehicle car{};
        car.pos = 0.0;
        car.speed = entry_speed < 0.0 ? v_des : std::min(v_des, entry_speed);
        car.v0 = v_des;
        car.road = lane.road;
        car.lane = lane.lane;
        lane.column.push_back(static_cast<std::uint32_t>(v.size()));
        v.push_back(car);
        lane.next_spawn += Time::seconds(lane.rng.exponential(1.0 / p_.flow_rate_veh_per_s_per_lane));
      }
    }
  }

  void compute_accels(Time now) {
    const IdmParams& idm = p_.idm;
    const double threshold = p_.hard_brake_threshold_mps2;
    for (const Lane& lane : lanes_) {
      for (std::size_t i = 0; i < lane.column.size(); ++i) {
        const std::uint32_t id = lane.column[i];
        Vehicle& me = v[id];
        double gap = 1e9;
        double dv = 0.0;
        if (i > 0) {
          const Vehicle& lead = v[lane.column[i - 1]];
          gap = lead.pos - me.pos - idm.vehicle_length_m;
          dv = me.speed - lead.speed;
        }
        double v0 = me.v0;
        double headway = idm.time_headway_s;
        if (me.policy_until > now) {
          headway *= me.policy.headway_scale;
          v0 = std::min(v0, me.policy.speed_cap_mps);
        }
        double a = std::max(textbook_acceleration(idm, v0, headway, me.speed, gap, dv),
                            -TrafficFlow::kMaxPhysicalDecel);
        if (me.forced) {
          if (now >= me.forced_until) {
            me.forced = false;
          } else {
            a = me.speed > 0.0 ? std::min(a, -me.forced_decel) : 0.0;
          }
        }
        me.accel = a;
        if (a <= -threshold) {
          if (!me.braking) brake_edges.push_back(id);
          me.braking = true;
        } else if (a > -0.5 * threshold) {
          me.braking = false;
        }
      }
    }
  }

  void integrate_and_cull(Time now) {
    const double dt = p_.tick.to_seconds();
    for (Lane& lane : lanes_) {
      for (const auto id : lane.column) {
        Vehicle& me = v[id];
        me.speed = std::max(0.0, me.speed + me.accel * dt);
        me.pos += me.speed * dt;
        if (slow_stats_armed && !me.slowed && me.speed < p_.slow_speed_mps) {
          me.slowed = true;
          slow_events.push_back({id, now.to_seconds(), me.pos, lane.road, lane.lane});
        }
      }
      const double length = p_.roads[lane.road].length_m;
      while (!lane.column.empty() && v[lane.column.front()].pos >= length) {
        Vehicle& gone = v[lane.column.front()];
        despawns.push_back(lane.column.front());
        lane.column.erase(lane.column.begin());
        gone.pos = length;
        gone.speed = 0.0;
        gone.accel = 0.0;
        gone.active = false;
      }
    }
  }

  TrafficFlowParams p_;
  std::vector<Lane> lanes_;
  std::uint64_t ticks_{0};
};

/// What one seeded config covered, summed over configs.
struct Coverage {
  std::uint64_t odd_columns{0}, even_columns{0}, brake_edges{0}, despawns{0}, slow_events{0},
      forced_stops{0}, capped_configs{0};
};

std::string bits_differ(const char* what, std::uint32_t id, double engine, double reference) {
  if (same_bits(engine, reference)) return {};
  std::ostringstream os;
  os << std::hexfloat << what << " of vehicle " << id << ": engine " << engine << ", reference "
     << reference;
  return os.str();
}

/// Runs the engine and the reference in lockstep over one seeded config
/// and returns the first difference ("" if none).
std::string run_lockstep(std::uint64_t seed, Coverage& cover) {
  sim::Rng rng{sim::mix_seed(seed, 0x1D3D1FF)};
  TrafficFlowParams params;
  const int roads = 1 + static_cast<int>(seed % 3);
  for (int r = 0; r < roads; ++r) {
    RoadSpec road;
    road.origin = {0.0, 100.0 * r};
    road.length_m = rng.uniform(300.0, 1200.0);
    road.lanes = static_cast<int>(rng.uniform_int(std::int64_t{1}, std::int64_t{8}));
    params.roads.push_back(road);
  }
  params.flow_rate_veh_per_s_per_lane = rng.uniform(0.2, 1.0);
  params.speed_jitter_frac = seed % 2 == 0 ? 0.0 : 0.1;
  params.idm.accel_exponent = seed % 4 < 2 ? 4.0 : 3.5;
  if (seed % 5 == 0) params.max_vehicles = static_cast<std::size_t>(rng.uniform_int(std::int64_t{20}, std::int64_t{200}));
  params.speed_sample_every_ticks = static_cast<int>(rng.uniform_int(std::int64_t{1}, std::int64_t{10}));

  TrafficFlow flow{params, seed};
  ReferenceFlow ref{params, seed};
  std::vector<std::uint32_t> edges, despawns;
  flow.set_on_hard_brake([&](TrafficFlow::VehicleId id) { edges.push_back(id); });
  flow.set_on_despawn([&](TrafficFlow::VehicleId id) { despawns.push_back(id); });
  sim::Scheduler sched;
  flow.start(sched);

  constexpr int kTicks = 600;
  const int arm_at = static_cast<int>(rng.uniform_int(std::int64_t{0}, std::int64_t{300}));
  for (int tick = 1; tick <= kTicks; ++tick) {
    const Time now = params.tick * tick;
    edges.clear();
    despawns.clear();
    sched.run_until(now);
    ref.step(now);
    const auto fail = [&](const std::string& what) {
      return "tick " + std::to_string(tick) + ": " + what;
    };

    if (flow.spawned_total() != ref.v.size())
      return fail("spawned " + std::to_string(flow.spawned_total()) + " vs " +
                  std::to_string(ref.v.size()));
    std::size_t active = 0;
    for (std::uint32_t id = 0; id < ref.v.size(); ++id) {
      const ReferenceFlow::Vehicle& want = ref.v[id];
      active += want.active;
      if (flow.active(id) != want.active) return fail("active flag of " + std::to_string(id));
      if (flow.road_of(id) != want.road || flow.lane_of(id) != want.lane)
        return fail("road or lane of " + std::to_string(id));
      std::string d = bits_differ("position", id, flow.longitudinal_pos(id), want.pos);
      if (d.empty()) d = bits_differ("speed", id, flow.speed_of(id), want.speed);
      if (!d.empty()) return fail(d);
    }
    if (flow.active_count() != active) return fail("active_count");
    if (edges != ref.brake_edges) return fail("brake-edge callback sequence");
    if (despawns != ref.despawns) return fail("despawn callback sequence");
    const auto& slow = flow.slow_events();
    if (slow.size() != ref.slow_events.size()) return fail("slow event count");
    for (std::size_t k = 0; k < slow.size(); ++k) {
      const SlowEvent& a = slow[k];
      const SlowEvent& b = ref.slow_events[k];
      if (a.vehicle != b.vehicle || !same_bits(a.t_s, b.t_s) || !same_bits(a.pos_m, b.pos_m) ||
          a.road != b.road || a.lane != b.lane)
        return fail("slow event " + std::to_string(k));
    }
    const auto& samples = flow.speed_series();
    if (samples.size() != ref.speed_series.size()) return fail("speed sample count");
    if (!samples.empty()) {
      const SpeedSample& a = samples.back();
      const SpeedSample& b = ref.speed_series.back();
      if (!same_bits(a.t_s, b.t_s) || !same_bits(a.mean_speed_mps, b.mean_speed_mps) ||
          a.active != b.active)
        return fail("speed sample " + std::to_string(samples.size() - 1));
    }
    cover.brake_edges += edges.size();
    cover.despawns += despawns.size();
    ref.count_columns(cover.odd_columns, cover.even_columns);

    // Closed-loop hooks, on any vehicle ever spawned (departed ones too).
    if (tick == arm_at) {
      flow.arm_slow_stats();
      ref.slow_stats_armed = true;
    }
    if (!ref.v.empty() && rng.chance(0.15)) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(ref.v.size()));
      const DrivingPolicy policy{rng.uniform(1.0, 3.0),
                                 rng.chance(0.3) ? std::numeric_limits<double>::infinity()
                                                 : rng.uniform(0.0, 40.0)};
      const Time until = now + Time::seconds(rng.uniform(0.0, 10.0));
      flow.apply_policy(id, policy, until);
      ref.apply_policy(id, policy, until);
    }
    if (!ref.v.empty() && rng.chance(0.03)) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(ref.v.size()));
      const double decel = rng.uniform(0.5, TrafficFlow::kMaxPhysicalDecel);
      const Time until = now + Time::seconds(rng.uniform(0.0, 15.0));
      flow.force_stop(id, decel, until);
      ref.force_stop(id, decel, until);
      ++cover.forced_stops;
    }
  }
  cover.slow_events += ref.slow_events.size();
  if (params.max_vehicles != 0 && ref.v.size() == params.max_vehicles) ++cover.capped_configs;
  return {};
}

TEST(IdmEngine, MatchesAnIdIndexedReferenceOnSeededConfigs) {
  // 60 seeded configs: 1-3 roads of 1-8 lanes, jitter 0 and 0.1, δ = 4
  // (the two-lane law) and 3.5 (scalar only), every fifth config capped,
  // random policies and forced stops between ticks. Every tick compares
  // positions, speeds and active flags bit for bit, the brake-edge and
  // despawn callback sequences, slow events and speed samples.
  Coverage cover;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string diff = run_lockstep(seed, cover);
    EXPECT_TRUE(diff.empty()) << "seed " << seed << ", " << diff;
  }
  // The configs reached what they are meant to cover.
  EXPECT_GT(cover.odd_columns, 1000u);
  EXPECT_GT(cover.even_columns, 1000u);
  EXPECT_GT(cover.brake_edges, 100u);
  EXPECT_GT(cover.despawns, 1000u);
  EXPECT_GT(cover.slow_events, 100u);
  EXPECT_GT(cover.forced_stops, 100u);
  EXPECT_GE(cover.capped_configs, 6u);
}

}  // namespace
}  // namespace eblnet::mobility
