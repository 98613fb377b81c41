#include <gtest/gtest.h>

#include "mobility/platoon.hpp"
#include "mobility/vehicle.hpp"
#include "sim/scheduler.hpp"
#include "waypoint_mobility.hpp"

namespace eblnet::mobility {
namespace {

using eblnet::testing::WaypointMobility;
using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// Vec2
// ---------------------------------------------------------------------------

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{3.0, 4.0}, b{1.0, -2.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
  EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
  EXPECT_EQ((a * 2.0), (Vec2{6.0, 8.0}));
  EXPECT_EQ((a / 2.0), (Vec2{1.5, 2.0}));
  EXPECT_DOUBLE_EQ(a.length(), 5.0);
  EXPECT_DOUBLE_EQ(a.dot(b), -5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4.0 + 36.0));
}

TEST(Vec2Test, Normalized) {
  const Vec2 v{3.0, 4.0};
  const Vec2 n = v.normalized();
  EXPECT_DOUBLE_EQ(n.length(), 1.0);
  EXPECT_DOUBLE_EQ(n.x, 0.6);
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
}

TEST(Vec2Test, MphConversion) {
  EXPECT_NEAR(mph_to_mps(50.0), 22.352, 1e-9);
  EXPECT_NEAR(mph_to_mps(0.0), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// StaticMobility / WaypointMobility
// ---------------------------------------------------------------------------

TEST(StaticMobilityTest, NeverMoves) {
  StaticMobility m{{5.0, 7.0}};
  EXPECT_EQ(m.position_at(Time::zero()), (Vec2{5.0, 7.0}));
  EXPECT_EQ(m.position_at(100_s), (Vec2{5.0, 7.0}));
  EXPECT_EQ(m.velocity_at(50_s), Vec2{});
}

TEST(WaypointTest, RestsAtInitialPositionBeforeFirstCommand) {
  WaypointMobility m{{1.0, 2.0}};
  m.set_destination_at(10_s, {11.0, 2.0}, 1.0);
  EXPECT_EQ(m.position_at(Time::zero()), (Vec2{1.0, 2.0}));
  EXPECT_EQ(m.position_at(5_s), (Vec2{1.0, 2.0}));
  EXPECT_EQ(m.velocity_at(5_s), Vec2{});
}

TEST(WaypointTest, MovesLinearlyAtConstantSpeed) {
  WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(Time::zero(), {10.0, 0.0}, 2.0);
  EXPECT_NEAR(m.position_at(1_s).x, 2.0, 1e-9);
  EXPECT_NEAR(m.position_at(Time::seconds(2.5)).x, 5.0, 1e-9);
  EXPECT_NEAR(m.velocity_at(1_s).x, 2.0, 1e-9);
}

TEST(WaypointTest, StopsAtDestination) {
  WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(Time::zero(), {10.0, 0.0}, 2.0);
  EXPECT_NEAR(m.position_at(5_s).x, 10.0, 1e-9);
  EXPECT_NEAR(m.position_at(100_s).x, 10.0, 1e-9);
  EXPECT_EQ(m.velocity_at(100_s), Vec2{});
}

TEST(WaypointTest, SequentialLegsChainCorrectly) {
  WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(Time::zero(), {10.0, 0.0}, 2.0);   // arrives at 5s
  m.set_destination_at(8_s, {10.0, 6.0}, 3.0);            // arrives at 10s
  EXPECT_NEAR(m.position_at(7_s).x, 10.0, 1e-9);
  EXPECT_NEAR(m.position_at(9_s).y, 3.0, 1e-9);
  EXPECT_NEAR(m.position_at(20_s).y, 6.0, 1e-9);
}

TEST(WaypointTest, CommandInterruptsPreviousLeg) {
  WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(Time::zero(), {100.0, 0.0}, 10.0);  // would arrive at 10s
  m.set_destination_at(2_s, {20.0, 30.0}, 5.0);            // diverted mid-leg at (20,0)
  EXPECT_NEAR(m.position_at(2_s).x, 20.0, 1e-9);
  // New leg: from (20,0) to (20,30) at 5 m/s -> arrives at 8s.
  EXPECT_NEAR(m.position_at(5_s).y, 15.0, 1e-9);
  EXPECT_NEAR(m.position_at(8_s).y, 30.0, 1e-9);
}

TEST(WaypointTest, RejectsBadCommands) {
  WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(5_s, {1.0, 0.0}, 1.0);
  EXPECT_THROW(m.set_destination_at(4_s, {2.0, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(m.set_destination_at(6_s, {2.0, 0.0}, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Vehicle
// ---------------------------------------------------------------------------

class VehicleTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
};

TEST_F(VehicleTest, StartsStopped) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  EXPECT_EQ(v.state(), DriveState::kStopped);
  EXPECT_TRUE(v.is_braking_or_stopped());
  EXPECT_DOUBLE_EQ(v.current_speed(), 0.0);
}

TEST_F(VehicleTest, CruiseMovesAlongHeading) {
  Vehicle v{sched, {0.0, 0.0}, {0.0, 1.0}};
  v.cruise(10.0);
  EXPECT_EQ(v.state(), DriveState::kCruising);
  sched.run_until(3_s);
  EXPECT_NEAR(v.position_at(3_s).y, 30.0, 1e-9);
  EXPECT_NEAR(v.velocity_at(3_s).y, 10.0, 1e-9);
}

TEST_F(VehicleTest, BrakingDeceleratesQuadratically) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  v.cruise(20.0);
  sched.run_until(1_s);
  v.brake(5.0);  // stops after 4 s, covering 40 m
  // 2 s into braking: x = 20 + 20*2 - 0.5*5*4 = 50, speed = 10.
  EXPECT_NEAR(v.position_at(3_s).x, 50.0, 1e-9);
  EXPECT_NEAR(v.velocity_at(3_s).x, 10.0, 1e-9);
  // At and beyond the stop time: x = 20 + 40 = 60, speed 0.
  EXPECT_NEAR(v.position_at(5_s).x, 60.0, 1e-9);
  EXPECT_NEAR(v.position_at(50_s).x, 60.0, 1e-9);
  EXPECT_EQ(v.velocity_at(50_s), Vec2{});
}

TEST_F(VehicleTest, BrakingTransitionsToStoppedOnSchedule) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  v.cruise(10.0);
  sched.run_until(1_s);
  v.brake(5.0);  // stops at t=3s
  EXPECT_EQ(v.state(), DriveState::kBraking);
  sched.run_until(Time::seconds(2.9));
  EXPECT_EQ(v.state(), DriveState::kBraking);
  sched.run_until(Time::seconds(3.1));
  EXPECT_EQ(v.state(), DriveState::kStopped);
}

TEST_F(VehicleTest, ObserversSeeEveryTransition) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  std::vector<DriveState> seen;
  v.subscribe([&](DriveState s) { seen.push_back(s); });
  v.cruise(10.0);
  v.brake(10.0);  // stops at t=1s
  sched.run_until(2_s);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], DriveState::kCruising);
  EXPECT_EQ(seen[1], DriveState::kBraking);
  EXPECT_EQ(seen[2], DriveState::kStopped);
}

TEST_F(VehicleTest, CruiseDuringBrakingCancelsStop) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  v.cruise(10.0);
  v.brake(5.0);  // would stop at 2s
  sched.run_until(1_s);
  v.cruise(15.0);
  sched.run_until(10_s);
  EXPECT_EQ(v.state(), DriveState::kCruising);
  EXPECT_NEAR(v.current_speed(), 15.0, 1e-9);
}

TEST_F(VehicleTest, BrakeWhileStoppedIsNoOp) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  std::vector<DriveState> seen;
  v.subscribe([&](DriveState s) { seen.push_back(s); });
  v.brake(5.0);
  EXPECT_EQ(v.state(), DriveState::kStopped);
  EXPECT_TRUE(seen.empty());
}

TEST_F(VehicleTest, RejectsBadArguments) {
  EXPECT_THROW(Vehicle(sched, {0.0, 0.0}, {0.0, 0.0}), std::invalid_argument);
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(v.cruise(0.0), std::invalid_argument);
  v.cruise(1.0);
  EXPECT_THROW(v.brake(-1.0), std::invalid_argument);
}

TEST_F(VehicleTest, BrakeWhileBrakingUsesInstantaneousSpeed) {
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  v.cruise(10.0);
  v.brake(2.0);          // would stop at t = 5 s, 25 m out
  sched.run_until(2_s);  // at 6 m/s, 16 m out
  v.brake(6.0);          // stops after 1 s, 3 m further
  EXPECT_EQ(v.state(), DriveState::kBraking);
  sched.run_until(3_s);
  EXPECT_EQ(v.state(), DriveState::kStopped);
  EXPECT_NEAR(v.position_at(3_s).x, 16.0 + 3.0, 1e-9);
  // The re-armed stop timer replaced the t = 5 s one: still at rest there.
  sched.run_until(10_s);
  EXPECT_EQ(v.state(), DriveState::kStopped);
  EXPECT_NEAR(v.position_at(10_s).x, 19.0, 1e-9);
  EXPECT_EQ(v.velocity_at(10_s), Vec2{});
}

TEST_F(VehicleTest, StoppingDistanceFormula) {
  EXPECT_DOUBLE_EQ(Vehicle::stopping_distance(20.0, 5.0), 40.0);
  EXPECT_DOUBLE_EQ(Vehicle::stopping_distance(0.0, 5.0), 0.0);
  // The paper's scenario: 22.352 m/s at 5 m/s^2 -> ~50 m.
  EXPECT_NEAR(Vehicle::stopping_distance(22.352, 5.0), 49.96, 0.01);
}

// ---------------------------------------------------------------------------
// Platoon
// ---------------------------------------------------------------------------

class PlatoonTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
};

TEST_F(PlatoonTest, MembersSpacedBehindLead) {
  Platoon p{sched, 3, {0.0, 0.0}, {0.0, 1.0}, 5.0};
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.lead()->position_at(Time::zero()), (Vec2{0.0, 0.0}));
  EXPECT_EQ(p.vehicle(1)->position_at(Time::zero()), (Vec2{0.0, -5.0}));
  EXPECT_EQ(p.trailing()->position_at(Time::zero()), (Vec2{0.0, -10.0}));
}

TEST_F(PlatoonTest, CruisePreservesGeometry) {
  Platoon p{sched, 3, {0.0, 0.0}, {1.0, 0.0}, 5.0};
  p.cruise(10.0);
  sched.run_until(4_s);
  EXPECT_NEAR(p.lead()->position_at(4_s).x, 40.0, 1e-9);
  EXPECT_NEAR(p.vehicle(1)->position_at(4_s).x, 35.0, 1e-9);
  EXPECT_NEAR(p.trailing()->position_at(4_s).x, 30.0, 1e-9);
}

TEST_F(PlatoonTest, DriveAndStopAtHitsTheMark) {
  Platoon p{sched, 3, {0.0, -100.0}, {0.0, 1.0}, 5.0};
  const Time stop_at = p.drive_and_stop_at({0.0, 0.0}, 20.0, 5.0);
  sched.run_until(stop_at + 1_s);
  EXPECT_NEAR(p.lead()->position_at(sched.now()).y, 0.0, 1e-6);
  EXPECT_EQ(p.lead()->state(), DriveState::kStopped);
  // Followers hold the 5 m gaps.
  EXPECT_NEAR(p.vehicle(1)->position_at(sched.now()).y, -5.0, 1e-6);
  // Timing: 100m total, 40m of braking at 4s, 60m of cruising at 3s.
  EXPECT_EQ(stop_at, 7_s);
}

TEST_F(PlatoonTest, DriveAndStopRejectsImpossibleStop) {
  Platoon p{sched, 2, {0.0, -10.0}, {0.0, 1.0}, 5.0};
  // 20 m/s with 5 m/s^2 needs 40 m; only 10 m available.
  EXPECT_THROW(p.drive_and_stop_at({0.0, 0.0}, 20.0, 5.0), std::invalid_argument);
}

TEST_F(PlatoonTest, ValidatesConstruction) {
  EXPECT_THROW(Platoon(sched, 0, {0.0, 0.0}, {1.0, 0.0}, 5.0), std::invalid_argument);
  EXPECT_THROW(Platoon(sched, 2, {0.0, 0.0}, {1.0, 0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(Platoon(sched, 2, {0.0, 0.0}, {0.0, 0.0}, 5.0), std::invalid_argument);
}

// Parameterized kinematics sweep: braking from speed v at decel a always
// stops after exactly v^2/2a metres and v/a seconds.
class BrakingSweep : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BrakingSweep, StopsAtPredictedPointAndTime) {
  const auto [speed, decel] = GetParam();
  sim::Scheduler sched;
  Vehicle v{sched, {0.0, 0.0}, {1.0, 0.0}};
  v.cruise(speed);
  v.brake(decel);
  const double t_stop = speed / decel;
  sched.run_until(Time::seconds(t_stop) + 1_ms);
  EXPECT_EQ(v.state(), DriveState::kStopped);
  EXPECT_NEAR(v.position_at(sched.now()).x, Vehicle::stopping_distance(speed, decel), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Kinematics, BrakingSweep,
                         ::testing::Values(std::pair{5.0, 1.0}, std::pair{11.176, 3.0},
                                           std::pair{22.352, 5.0}, std::pair{22.352, 8.0},
                                           std::pair{31.3, 6.0}, std::pair{40.0, 9.0}));

}  // namespace
}  // namespace eblnet::mobility
