#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/ebl_app.hpp"
#include "core/safety.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "mobility/platoon.hpp"
#include "test_net.hpp"

namespace eblnet::core {
namespace {

using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// StoppingAssessment (the §III.E model)
// ---------------------------------------------------------------------------

TEST(SafetyTest, PaperTdmaNumbers) {
  // 0.24 s notification at 22.352 m/s with 5 m headway: 5.36 m, >100%.
  const StoppingAssessment a{22.352, 5.0, 0.24};
  EXPECT_NEAR(a.distance_during_notification(), 5.36, 0.01);
  EXPECT_GT(a.fraction_of_headway(), 1.0);
  EXPECT_FALSE(a.collision_avoided(0.0));
}

TEST(SafetyTest, Paper80211Numbers) {
  // ~0.018 s notification: 0.40 m, ~8% of the separation.
  const StoppingAssessment a{22.352, 5.0, 0.018};
  EXPECT_NEAR(a.distance_during_notification(), 0.402, 0.01);
  EXPECT_NEAR(a.fraction_of_headway(), 0.08, 0.005);
  EXPECT_TRUE(a.collision_avoided(0.1));
}

TEST(SafetyTest, MarginAndTolerableDelay) {
  const StoppingAssessment a{20.0, 10.0, 0.1};
  EXPECT_DOUBLE_EQ(a.closing_distance(0.2), 6.0);
  EXPECT_DOUBLE_EQ(a.margin(0.2), 4.0);
  EXPECT_TRUE(a.collision_avoided(0.2));
  EXPECT_FALSE(a.collision_avoided(0.5));  // 12 m > 10 m headway
  EXPECT_DOUBLE_EQ(a.max_tolerable_delay(0.25), 0.25);
}

// ---------------------------------------------------------------------------
// PlatoonEbl: brake-triggered communication
// ---------------------------------------------------------------------------

class EblAppFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{5};
  std::unique_ptr<mobility::Platoon> platoon;
  std::vector<net::Node*> nodes;

  void build(std::size_t size = 3) {
    platoon = std::make_unique<mobility::Platoon>(net.env().scheduler(), size,
                                                  mobility::Vec2{0.0, 0.0},
                                                  mobility::Vec2{1.0, 0.0}, 5.0);
    for (std::size_t i = 0; i < size; ++i) {
      net::Node& n = net.add_mobile_node(platoon->vehicle(i));
      net.with_80211(n);
      net.with_aodv(n);
      nodes.push_back(&n);
    }
  }

  EblConfig fast_cfg() const {
    EblConfig cfg;
    cfg.packet_bytes = 500;
    cfg.cbr_rate_bps = 400e3;
    return cfg;
  }
};

TEST_F(EblAppFixture, CommunicatesWhileStopped) {
  build();
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  net.run_for(2_s);  // platoon starts stopped -> immediately communicating
  EXPECT_TRUE(ebl.communicating());
  EXPECT_GT(ebl.total_sink_bytes(), 0u);
  EXPECT_EQ(ebl.link_count(), 2u);
}

TEST_F(EblAppFixture, SilentWhileCruising) {
  build();
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  platoon->cruise(20.0);  // before t=0 fires
  net.run_for(2_s);
  EXPECT_FALSE(ebl.communicating());
  EXPECT_EQ(ebl.total_sink_bytes(), 0u);
}

TEST_F(EblAppFixture, BrakingStartsCommunication) {
  build();
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  platoon->cruise(20.0);
  net.run_for(2_s);
  ASSERT_EQ(ebl.total_sink_bytes(), 0u);
  platoon->brake(4.0);  // brakes for 5 s
  net.run_for(1_s);
  EXPECT_TRUE(ebl.communicating());
  EXPECT_GT(ebl.total_sink_bytes(), 0u);
}

TEST_F(EblAppFixture, CommunicationPersistsThroughBrakingToStopped) {
  build();
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  platoon->cruise(20.0);
  net.run_for(1_s);
  platoon->brake(4.0);
  net.run_for(10_s);  // well past the stop
  EXPECT_EQ(platoon->lead()->state(), mobility::DriveState::kStopped);
  EXPECT_TRUE(ebl.communicating());
}

TEST_F(EblAppFixture, ResumingCruiseStopsCommunication) {
  build();
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  net.run_for(2_s);
  const auto bytes_while_stopped = ebl.total_sink_bytes();
  EXPECT_GT(bytes_while_stopped, 0u);
  platoon->cruise(20.0);
  net.run_for(500_ms);  // drain anything in flight
  const auto bytes_after = ebl.total_sink_bytes();
  net.run_for(3_s);
  EXPECT_EQ(ebl.communicating(), false);
  EXPECT_LE(ebl.total_sink_bytes() - bytes_after, 2u * 500u);  // at most stragglers
}

TEST_F(EblAppFixture, EachFollowerHasItsOwnLink) {
  build(4);
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  net.run_for(3_s);
  ASSERT_EQ(ebl.link_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(ebl.link(i).sink().bytes(), 0u) << "follower " << i + 1;
    EXPECT_EQ(ebl.link(i).follower_id(), nodes[i + 1]->id());
  }
}

TEST_F(EblAppFixture, RunningSinkTotalEqualsTheSumOverSinksWithDuplicates) {
  // Each sink adds to the platoon's running total where it counts its
  // own bytes, duplicates included. Lost ACKs from both followers make
  // the lead retransmit, so the sinks see duplicates.
  build(3);
  net.env().install_faults(sim::FaultPlan{}
                               .link_per(Time::zero(), 4_s, 0.4, nodes[1]->id(), nodes[0]->id())
                               .link_per(Time::zero(), 4_s, 0.4, nodes[2]->id(), nodes[0]->id()));
  PlatoonEbl ebl{net.env(), *platoon, nodes, fast_cfg()};
  net.run_for(6_s);
  std::uint64_t sum = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t i = 0; i < ebl.link_count(); ++i) {
    sum += ebl.link(i).sink().bytes();
    duplicates += ebl.link(i).sink().duplicates();
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(ebl.total_sink_bytes(), sum);
}

TEST_F(EblAppFixture, RequiresAtLeastOneFollower) {
  platoon = std::make_unique<mobility::Platoon>(net.env().scheduler(), 1,
                                                mobility::Vec2{0.0, 0.0},
                                                mobility::Vec2{1.0, 0.0}, 5.0);
  net::Node& n = net.add_mobile_node(platoon->vehicle(0));
  net.with_80211(n);
  net.with_aodv(n);
  nodes.push_back(&n);
  EXPECT_THROW(PlatoonEbl(net.env(), *platoon, nodes, fast_cfg()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EblScenario wiring
// ---------------------------------------------------------------------------

TEST(ScenarioTest, GeometryMatchesTimeline) {
  ScenarioConfig cfg;
  cfg.duration = 8_s;
  cfg.enable_trace = false;
  EblScenario s{cfg};

  // At t=0, platoon 1's lead is cruise+brake distance south of the origin.
  const double expected_start =
      -(cfg.speed_mps * 2.0 + cfg.speed_mps * cfg.speed_mps / (2.0 * cfg.decel_mps2));
  EXPECT_NEAR(s.node(0).position().y, expected_start, 1e-6);

  // At the documented stop time the lead is exactly at the intersection.
  s.run_until(cfg.platoon1_stop_time() + sim::Time::milliseconds(1));
  EXPECT_NEAR(s.node(0).position().y, 0.0, 1e-6);
  EXPECT_NEAR(s.node(1).position().y, -cfg.vehicle_gap_m, 1e-6);
  EXPECT_EQ(s.platoon1().lead()->state(), mobility::DriveState::kStopped);

  // Platoon 2 departs right then; shortly after it is cruising east.
  s.run_until(cfg.resolved_platoon2_depart() + 1_s);
  EXPECT_EQ(s.platoon2().lead()->state(), mobility::DriveState::kCruising);
  EXPECT_GT(s.platoon2().lead()->velocity_at(s.env().now()).x, 0.0);
}

TEST(ScenarioTest, CommunicationWindowsFollowTheNarrative) {
  ScenarioConfig cfg = core::ScenarioConfig{};
  cfg.mac = MacType::k80211;
  cfg.duration = 10_s;
  EblScenario s{cfg};

  s.run_until(1_s);
  EXPECT_FALSE(s.ebl1().communicating());  // platoon 1 still cruising
  EXPECT_TRUE(s.ebl2().communicating());   // platoon 2 parked & talking

  s.run_until(3_s);
  EXPECT_TRUE(s.ebl1().communicating());  // braking since t=2

  s.run_until(cfg.resolved_platoon2_depart() + 500_ms);
  EXPECT_FALSE(s.ebl2().communicating());  // departed
  EXPECT_TRUE(s.ebl1().communicating());
}

TEST(ScenarioTest, TdmaSlotsCoverAllNodesEvenWhenConfiguredLow) {
  ScenarioConfig cfg;
  cfg.mac = MacType::kTdma;
  cfg.tdma.num_slots = 2;  // fewer than 6 nodes: must be raised internally
  cfg.duration = 5_s;
  EXPECT_NO_THROW(EblScenario{cfg});
}

TEST(ScenarioTest, RejectsDegeneratePlatoon) {
  ScenarioConfig cfg;
  cfg.platoon_size = 1;
  EXPECT_THROW(EblScenario{cfg}, std::invalid_argument);
}

/// Expects construction to throw std::invalid_argument naming `field`.
void expect_rejected(const ScenarioConfig& cfg, const std::string& field) {
  try {
    EblScenario scenario{cfg};
    ADD_FAILURE() << "accepted; expected a message naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
  }
}

TEST(ScenarioTest, RejectsPacketBytesOutsideAnIpDatagramByName) {
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{65'536}, SIZE_MAX}) {
    ScenarioConfig cfg;
    cfg.packet_bytes = bytes;
    SCOPED_TRACE(bytes);
    expect_rejected(cfg, "packet_bytes");
  }
  ScenarioConfig largest;
  largest.packet_bytes = 65'535;
  EXPECT_NO_THROW(EblScenario{largest});
}

TEST(ScenarioTest, RejectsACbrRateThatIsNotFiniteAndPositiveByName) {
  for (const double rate : {0.0, -1.2e6, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    ScenarioConfig cfg;
    cfg.ebl.cbr_rate_bps = rate;
    SCOPED_TRACE(rate);
    expect_rejected(cfg, "ebl.cbr_rate_bps must be finite and > 0");
  }
}

TEST(ScenarioTest, RejectsASendIntervalSimTimeCannotHoldByName) {
  // 1000 bytes at 1e-300 b/s take ~8e303 s and at 1e-6 b/s 8e18 ns,
  // which fits int64 but not below 2^62 ns; at 1e300 or 1e14 b/s the
  // interval rounds to 0 ns (the feeder would re-arm at one instant
  // forever).
  for (const double rate : {1e-300, 1e-6, 1e300, 1e14}) {
    ScenarioConfig cfg;
    cfg.ebl.cbr_rate_bps = rate;
    SCOPED_TRACE(rate);
    expect_rejected(cfg, "send interval");
  }
  ScenarioConfig slow;
  slow.ebl.cbr_rate_bps = 1.0;  // one 1000-byte packet every 8000 s
  EXPECT_NO_THROW(EblScenario{slow});
}

// ---------------------------------------------------------------------------
// extract_trial_result's delivery accounting
// ---------------------------------------------------------------------------

TEST(ExtractTrialResultTest, OnlyTheSourcesAgentSendsAreOffered) {
  const auto agent = [](double t, net::TraceAction action, net::NodeId node,
                        std::uint64_t seq) {
    net::TraceRecord r;
    r.t = Time::seconds(t);
    r.action = action;
    r.layer = net::TraceLayer::kAgent;
    r.node = node;
    r.type = net::PacketType::kTcpData;
    r.ip_src = EblScenario::kP1Lead;
    r.ip_dst = EblScenario::kP1Middle;
    r.app_seq = seq;
    return r;
  };
  trace::TraceStore records;
  records.push_back(agent(1.0, net::TraceAction::kSend, EblScenario::kP1Lead, 0));
  records.push_back(agent(1.1, net::TraceAction::kRecv, EblScenario::kP1Middle, 0));
  // A data send traced at a node other than the packet's source.
  records.push_back(agent(1.2, net::TraceAction::kSend, EblScenario::kP1Trailing, 1));
  const TrialResult r = extract_trial_result(trial1_config(), "t", records, {}, {}, {}, 0, nullptr);
  EXPECT_EQ(r.p1_middle.size(), 1u);
  EXPECT_DOUBLE_EQ(r.resilience.delivery_ratio, 1.0);
}

}  // namespace
}  // namespace eblnet::core
