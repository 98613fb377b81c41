// The closed-loop traffic scenario (core::TrafficScenario) and its
// builder surface: the network layer observes the traffic without
// perturbing it, the V2V warning loop actually closes under an incident,
// the scripted scenario family stays bit-identical next to the new
// machinery, and the channel learns the dynamics side's speed bound.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_builder.hpp"
#include "core/traffic_scenario.hpp"
#include "sim/scheduler.hpp"

using namespace eblnet;

namespace {

using sim::Time;

core::TrafficConfig small_config() {
  core::TrafficConfig cfg;
  cfg.flow = mobility::TrafficFlowParams::highway(/*lanes=*/2, /*length_m=*/2000.0,
                                                  /*flow_veh_per_s_per_lane=*/0.4);
  cfg.duration = Time::seconds(std::int64_t{60});
  cfg.incident_at = Time::zero();  // no incident unless a test stages one
  cfg.seed = 11;
  return cfg;
}

// Construction must throw std::invalid_argument naming `field`.
void expect_rejected(const core::TrafficConfig& cfg, const char* field) {
  try {
    core::TrafficScenario scenario{cfg};
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(TrafficScenarioTest, TrafficIsIdenticalAcrossPenetrationsWithoutIncident) {
  // The radio stack must be a pure observer of the dynamics: with no
  // incident there is nothing to warn about, so p=0 (no nodes at all)
  // and p=1 (every vehicle equipped) must produce the exact same
  // traffic stream — same spawns, same final kinematic state.
  core::TrafficConfig cfg = small_config();

  cfg.penetration = 0.0;
  auto without = std::make_unique<core::TrafficScenario>(cfg);
  without->run();

  cfg.penetration = 1.0;
  auto with = std::make_unique<core::TrafficScenario>(cfg);
  with->run();

  EXPECT_EQ(without->equipped_count(), 0u);
  EXPECT_GT(with->equipped_count(), 0u);

  const auto& a = without->flow();
  const auto& b = with->flow();
  ASSERT_EQ(a.spawned_total(), b.spawned_total());
  ASSERT_GT(a.spawned_total(), 10u);
  for (mobility::TrafficFlow::VehicleId v = 0; v < a.spawned_total(); ++v) {
    EXPECT_EQ(a.longitudinal_pos(v), b.longitudinal_pos(v)) << "vehicle " << v;
    EXPECT_EQ(a.speed_of(v), b.speed_of(v)) << "vehicle " << v;
    EXPECT_EQ(a.lane_of(v), b.lane_of(v)) << "vehicle " << v;
  }
}

TEST(TrafficScenarioTest, IncidentClosesTheWarningLoopAtFullPenetration) {
  core::TrafficConfig cfg = small_config();
  cfg.flow.flow_rate_veh_per_s_per_lane = 0.5;
  cfg.duration = Time::seconds(std::int64_t{180});
  cfg.incident_at = Time::seconds(std::int64_t{60});
  cfg.incident_hold = Time::seconds(std::int64_t{90});
  cfg.penetration = 1.0;
  cfg.seed = 3;

  const core::TrafficRunResult r =
      core::ScenarioBuilder().with_traffic_flow(cfg).run_traffic("incident/p=1");

  EXPECT_GT(r.vehicles_spawned, 0u);
  EXPECT_EQ(r.equipped, r.vehicles_spawned);  // p=1: everyone carries a radio
  // The loop actually closed: the stopping vehicle (and the hard-braking
  // followers) flooded warnings, upstream radios heard them, and at
  // least one reception installed a cautious driving policy.
  EXPECT_GT(r.warnings_originated, 0u);
  EXPECT_GT(r.warning_receptions, 0u);
  EXPECT_GT(r.reactions, 0u);
  // And the dynamics felt it: a multi-vehicle slowdown with enough
  // first-slow samples to fit a shockwave front.
  EXPECT_GT(r.slowed_vehicles, 1u);
  EXPECT_GE(r.shockwave_points, 2u);
  EXPECT_GT(r.events_executed, 0u);
}

TEST(TrafficScenarioTest, PenetrationZeroRunsWithoutAnyRadio) {
  core::TrafficConfig cfg = small_config();
  cfg.duration = Time::seconds(std::int64_t{90});
  cfg.incident_at = Time::seconds(std::int64_t{30});
  cfg.penetration = 0.0;

  const core::TrafficRunResult r =
      core::ScenarioBuilder().with_traffic_flow(cfg).run_traffic("incident/p=0");
  EXPECT_EQ(r.equipped, 0u);
  EXPECT_EQ(r.warnings_originated, 0u);
  EXPECT_EQ(r.warning_receptions, 0u);
  EXPECT_EQ(r.reactions, 0u);
  // The shockwave still happens — it is pure car-following physics.
  EXPECT_GT(r.slowed_vehicles, 0u);
}

TEST(TrafficScenarioTest, BuilderKeepsTheScenarioFamiliesApart) {
  core::TrafficConfig cfg = small_config();
  core::ScenarioBuilder traffic = core::ScenarioBuilder().with_traffic_flow(cfg);
  // The scripted terminals refuse a traffic config instead of silently
  // ignoring it.
  EXPECT_THROW(traffic.run("mixed"), std::logic_error);
  EXPECT_THROW(traffic.build_scenario(), std::logic_error);
  // And the traffic terminal requires the traffic config.
  EXPECT_THROW(core::ScenarioBuilder().build_traffic_scenario(), std::logic_error);
}

TEST(TrafficScenarioTest, BadIncidentDecelAndWarnedPolicyAreRejectedAtConstruction) {
  // Unchecked, a zero decel throws only when the incident fires, minutes
  // into the run, and a NaN headway scale reaches every warned vehicle,
  // where std::max(0.0, NaN) drops s*'s whole dynamic term.
  core::TrafficConfig cfg = small_config();
  cfg.incident_decel_mps2 = 0.0;
  expect_rejected(cfg, "incident_decel_mps2");
  cfg = small_config();
  cfg.warned_policy.headway_scale = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(cfg, "warned_policy.headway_scale");
}

TEST(TrafficScenarioTest, NanFieldsAndNegativeReactionAreRejectedAtConstruction) {
  // Unchecked, a NaN warn range makes `ahead > warn_range_m` always
  // false, so every warning from ahead acts whatever its distance; a
  // NaN or +inf incident position stages no incident; a NaN congestion
  // speed never records an onset; and a negative reaction throws only
  // from the first equipped spawn, so never at penetration 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  core::TrafficConfig cfg = small_config();
  cfg.warn_range_m = nan;
  expect_rejected(cfg, "warn_range_m");
  cfg = small_config();
  cfg.incident_pos_m = nan;
  expect_rejected(cfg, "incident_pos_m");
  cfg.incident_pos_m = std::numeric_limits<double>::infinity();
  expect_rejected(cfg, "incident_pos_m");
  cfg = small_config();
  cfg.congestion_speed_mps = nan;
  expect_rejected(cfg, "congestion_speed_mps");
  cfg = small_config();
  cfg.penetration = 0.0;
  cfg.reaction = Time::zero() - Time::milliseconds(1);
  expect_rejected(cfg, "reaction");
  // The negative incident position stays the mid-road sentinel.
  cfg = small_config();
  cfg.incident_pos_m = -std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(core::TrafficScenario{cfg});
}

TEST(TrafficScenarioTest, TrafficRunInheritsTheBuilderSeed) {
  core::TrafficConfig cfg = small_config();
  cfg.seed = 1;  // sentinel: defer to the builder
  auto scenario = core::ScenarioBuilder().seed(99).with_traffic_flow(cfg).build_traffic_scenario();
  EXPECT_EQ(scenario->config().seed, 99u);

  cfg.seed = 5;  // explicit config seed wins
  auto pinned = core::ScenarioBuilder().seed(99).with_traffic_flow(cfg).build_traffic_scenario();
  EXPECT_EQ(pinned->config().seed, 5u);
}

TEST(TrafficScenarioTest, ChannelLearnsTheDynamicsSideSpeedBound) {
  // The spatial grid's staleness slack must cover the IDM engine's top
  // speed from the start — before anything moves — or an accelerating
  // vehicle could outrun its cull radius between re-buckets.
  core::TrafficConfig cfg = small_config();
  cfg.flow.idm.desired_speed_mps = 60.0;  // well above the static grid default
  auto scenario = core::ScenarioBuilder().with_traffic_flow(cfg).build_traffic_scenario();
  EXPECT_GE(scenario->channel().speed_bound_mps(), scenario->flow().max_speed_bound_mps());
}

TEST(TrafficScenarioTest, ScriptedScenarioStaysBitIdenticalNextToTrafficMachinery) {
  // The api split's core promise: the scripted intersection runs are
  // untouched by the stateful dynamics side. Run trial 3 before and
  // after exercising a TrafficFlow in a separate scheduler — every
  // counter and delay sample must match exactly.
  const auto run_once = [] {
    return core::ScenarioBuilder::trial3()
        .duration(Time::seconds(std::int64_t{16}))
        .run("bit-identity");
  };
  const core::TrialResult before = run_once();

  mobility::TrafficFlowParams p = mobility::TrafficFlowParams::highway(2, 1500.0, 0.5);
  mobility::TrafficFlow flow{p, 17};
  sim::Scheduler sched;
  flow.start(sched);
  sched.run_until(Time::seconds(std::int64_t{30}));
  ASSERT_GT(flow.spawned_total(), 0u);

  const core::TrialResult after = run_once();
  EXPECT_EQ(before.events_executed, after.events_executed);
  ASSERT_EQ(before.p1_middle.size(), after.p1_middle.size());
  for (std::size_t i = 0; i < before.p1_middle.size(); ++i) {
    EXPECT_EQ(before.p1_middle[i].sent, after.p1_middle[i].sent) << "sample " << i;
    EXPECT_EQ(before.p1_middle[i].received, after.p1_middle[i].received) << "sample " << i;
  }
  EXPECT_EQ(before.data_frame_sends, after.data_frame_sends);
}

TEST(TrafficScenarioTest, ReactiveBrakingHookClosesTheScriptedLoop) {
  // The generalized driving-policy hook on the scripted side: followers
  // brake on EBL reception instead of the scripted all-stop.
  auto scenario = core::ScenarioBuilder::trial(1000, core::MacType::k80211)
                      .with_reactive_braking(/*decel_mps2=*/6.0, Time::milliseconds(100))
                      .build_scenario();
  scenario->run();
  EXPECT_TRUE(scenario->reactor(0).triggered());
  EXPECT_GE(scenario->reactor(0).notified_at(), scenario->config().platoon1_brake_at);
  EXPECT_GE(scenario->collisions().min_observed_gap(), 0.0);

  // Without the hook the accessors refuse — the scripted motion has no
  // reactors to hand out.
  auto scripted = core::ScenarioBuilder::trial(1000, core::MacType::k80211).build_scenario();
  EXPECT_THROW(scripted->reactor(0), std::logic_error);
  EXPECT_THROW(scripted->collisions(), std::logic_error);
}
