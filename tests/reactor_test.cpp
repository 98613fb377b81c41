#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/ebl_app.hpp"
#include "core/reactor.hpp"
#include "core/rsu.hpp"
#include "test_net.hpp"
#include "waypoint_mobility.hpp"

namespace eblnet::core {
namespace {

using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// CollisionMonitor
// ---------------------------------------------------------------------------

class CollisionMonitorTest : public ::testing::Test {
 protected:
  net::Env env{1};
};

TEST_F(CollisionMonitorTest, DetectsRearEndWhenFollowerNeverBrakes) {
  auto lead = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{20.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  auto tail = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{0.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  lead->cruise(20.0);
  tail->cruise(20.0);
  CollisionMonitor monitor{env, {lead, tail}, 1.0};
  monitor.start();
  env.scheduler().schedule_in(1_s, [&] { lead->brake(8.0); });  // tail keeps going
  env.scheduler().run_until(20_s);
  EXPECT_TRUE(monitor.collided());
  EXPECT_EQ(monitor.collision_follower(), 1u);
  // Collision must occur after the brake, before the tail would pass 20 m.
  EXPECT_GT(monitor.collision_time(), 1_s);
}

TEST_F(CollisionMonitorTest, NoCollisionWhenBothBrakeTogether) {
  auto lead = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{20.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  auto tail = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{0.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  lead->cruise(20.0);
  tail->cruise(20.0);
  CollisionMonitor monitor{env, {lead, tail}, 1.0};
  monitor.start();
  env.scheduler().schedule_in(1_s, [&] {
    lead->brake(8.0);
    tail->brake(8.0);
  });
  env.scheduler().run_until(20_s);
  EXPECT_FALSE(monitor.collided());
  EXPECT_NEAR(monitor.min_observed_gap(), 20.0, 0.5);
}

TEST_F(CollisionMonitorTest, MinGapTracksReactionDelay) {
  auto lead = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{20.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  auto tail = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{0.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0});
  lead->cruise(20.0);
  tail->cruise(20.0);
  CollisionMonitor monitor{env, {lead, tail}, 0.5};
  monitor.start();
  env.scheduler().schedule_in(1_s, [&] { lead->brake(8.0); });
  env.scheduler().schedule_in(Time::seconds(1.5), [&] { tail->brake(8.0); });  // 0.5 s late
  env.scheduler().run_until(20_s);
  EXPECT_FALSE(monitor.collided());
  // Same decel, 0.5 s later: the gap shrinks by v * dt = 10 m.
  EXPECT_NEAR(monitor.min_observed_gap(), 10.0, 0.5);
}

TEST_F(CollisionMonitorTest, ValidatesArguments) {
  auto v = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{0.0, 0.0},
                                               mobility::Vec2{1.0, 0.0});
  EXPECT_THROW(CollisionMonitor(env, {v}, 1.0), std::invalid_argument);
  auto w = std::make_shared<mobility::Vehicle>(env.scheduler(), mobility::Vec2{5.0, 0.0},
                                               mobility::Vec2{1.0, 0.0});
  EXPECT_THROW(CollisionMonitor(env, {v, w}, 1.0, Time::zero()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EblBrakeReactor over a real stack
// ---------------------------------------------------------------------------

class ClosedLoopFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{19};
  std::unique_ptr<mobility::Platoon> platoon;
  std::vector<net::Node*> nodes;
  std::unique_ptr<PlatoonEbl> ebl;

  void build(double headway) {
    platoon = std::make_unique<mobility::Platoon>(net.env().scheduler(), 2,
                                                  mobility::Vec2{0.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0}, headway);
    for (std::size_t i = 0; i < 2; ++i) {
      net::Node& n = net.add_mobile_node(platoon->vehicle(i));
      net.with_80211(n);
      net.with_aodv(n);
      nodes.push_back(&n);
    }
    EblConfig cfg;
    cfg.packet_bytes = 500;
    cfg.cbr_rate_bps = 400e3;
    ebl = std::make_unique<PlatoonEbl>(net.env(), *platoon, nodes, cfg);
  }
};

TEST_F(ClosedLoopFixture, FollowerBrakesOnFirstMessage) {
  build(20.0);
  EblBrakeReactor reactor{net.env(), ebl->mutable_link(0).mutable_sink(), platoon->vehicle(1),
                          6.0, 100_ms};
  platoon->cruise(20.0);
  net.run_for(1_s);
  EXPECT_FALSE(reactor.triggered());
  platoon->lead()->brake(6.0);  // only the lead
  net.run_for(5_s);  // 20 m/s at 6 m/s^2 needs 3.3 s to stop
  ASSERT_TRUE(reactor.triggered());
  EXPECT_EQ(platoon->vehicle(1)->state(), mobility::DriveState::kStopped);
  // Actuation happened exactly `reaction` after notification.
  EXPECT_EQ(reactor.braked_at() - reactor.notified_at(), 100_ms);
}

TEST_F(ClosedLoopFixture, BadBrakeDecelIsRejectedBeforeTheSinkIsHooked) {
  // `decel <= 0` let NaN through, and the follower then braked to a
  // NaN stopping time.
  build(20.0);
  for (const double decel : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    try {
      EblBrakeReactor reactor{net.env(), ebl->mutable_link(0).mutable_sink(), platoon->vehicle(1),
                              decel, 100_ms};
      ADD_FAILURE() << "accepted decel " << decel;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("decel"), std::string::npos) << e.what();
    }
  }
  // No data callback points at a reactor that was never built: the
  // stopped platoon streams from the start.
  net.run_for(2_s);
  EXPECT_GT(ebl->link(0).sink().bytes(), 0u);
}

TEST_F(ClosedLoopFixture, SafeAtWideHeadwayCollidesWhenTight) {
  for (const double headway : {3.0, 25.0}) {
    eblnet::testing::TestNet local{19};
    mobility::Platoon p{local.env().scheduler(), 2, {0.0, 0.0}, {1.0, 0.0}, headway};
    std::vector<net::Node*> ns;
    for (std::size_t i = 0; i < 2; ++i) {
      net::Node& n = local.add_mobile_node(p.vehicle(i));
      local.with_80211(n);
      local.with_aodv(n);
      ns.push_back(&n);
    }
    EblConfig cfg;
    cfg.packet_bytes = 500;
    cfg.cbr_rate_bps = 400e3;
    PlatoonEbl app{local.env(), p, ns, cfg};
    // Exaggerated 1 s actuation latency makes the tight case collide even
    // over 802.11.
    EblBrakeReactor reactor{local.env(), app.mutable_link(0).mutable_sink(), p.vehicle(1), 6.0,
                            sim::Time::seconds(std::int64_t{1})};
    CollisionMonitor monitor{local.env(), {p.vehicle(0), p.vehicle(1)}, 0.5};
    p.cruise(22.352);
    local.run_for(1_s);
    monitor.start();
    p.lead()->brake(6.0);
    local.run_for(15_s);
    if (headway < 5.0) {
      EXPECT_TRUE(monitor.collided()) << "headway " << headway;
    } else {
      EXPECT_FALSE(monitor.collided()) << "headway " << headway;
    }
  }
}

TEST_F(ClosedLoopFixture, ResetRearmsForNextEpisode) {
  build(20.0);
  EblBrakeReactor reactor{net.env(), ebl->mutable_link(0).mutable_sink(), platoon->vehicle(1),
                          6.0, 100_ms};
  platoon->cruise(20.0);
  net.run_for(500_ms);
  platoon->lead()->brake(6.0);
  net.run_for(5_s);
  ASSERT_TRUE(reactor.triggered());
  reactor.reset();
  EXPECT_FALSE(reactor.triggered());
}

// ---------------------------------------------------------------------------
// RoadsideUnit / WarningReceiver
// ---------------------------------------------------------------------------

class RsuFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{29};
};

TEST_F(RsuFixture, StationaryVehicleInRangeGetsBeacons) {
  net::Node& rsu_node = net.add_node({0.0, 0.0});
  net.with_80211(rsu_node);
  net.with_static(rsu_node);
  net::Node& car = net.add_node({100.0, 0.0});
  net.with_80211(car);
  net.with_static(car);

  RoadsideUnit rsu{net.env(), rsu_node, 4000, 200, 100_ms};
  WarningReceiver rx{car, 4000};
  rsu.start();
  net.run_for(1_s);
  EXPECT_TRUE(rx.warned());
  EXPECT_GE(rx.beacons_received(), 9u);
  EXPECT_NEAR(rx.position_at_warning().x, 100.0, 1e-9);
}

TEST_F(RsuFixture, OutOfRangeVehicleHearsNothing) {
  net::Node& rsu_node = net.add_node({0.0, 0.0});
  net.with_80211(rsu_node);
  net.with_static(rsu_node);
  net::Node& car = net.add_node({400.0, 0.0});  // beyond 250 m decode range
  net.with_80211(car);
  net.with_static(car);

  RoadsideUnit rsu{net.env(), rsu_node, 4000, 200, 100_ms};
  WarningReceiver rx{car, 4000};
  rsu.start();
  net.run_for(2_s);
  EXPECT_FALSE(rx.warned());
  EXPECT_GT(rsu.beacons_sent(), 15u);
}

TEST_F(RsuFixture, ApproachingVehicleWarnedNearRadioRange) {
  net::Node& rsu_node = net.add_node({0.0, 0.0});
  net.with_80211(rsu_node);
  net.with_static(rsu_node);

  auto car_mob = std::make_shared<eblnet::testing::WaypointMobility>(mobility::Vec2{-600.0, 0.0});
  car_mob->set_destination_at(Time::zero(), {0.0, 0.0}, 30.0);
  net::Node& car = net.add_mobile_node(car_mob);
  net.with_80211(car);
  net.with_static(car);

  RoadsideUnit rsu{net.env(), rsu_node, 4000, 200, 100_ms};
  WarningReceiver rx{car, 4000};
  bool callback_fired = false;
  rx.set_on_first_warning([&] { callback_fired = true; });
  rsu.start();
  net.run_for(30_s);

  ASSERT_TRUE(rx.warned());
  EXPECT_TRUE(callback_fired);
  // First decodable beacon lands within one beacon interval of crossing
  // the ~250 m range boundary (30 m/s x 0.1 s = 3 m of slack).
  EXPECT_NEAR(-rx.position_at_warning().x, 250.0, 6.0);
}

}  // namespace
}  // namespace eblnet::core
