#include <gtest/gtest.h>

#include "phy/propagation.hpp"
#include "stats/summary.hpp"
#include "phy/wireless_phy.hpp"
#include "test_net.hpp"

namespace eblnet::phy {
namespace {

using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// Propagation models
// ---------------------------------------------------------------------------

TEST(PropagationTest, FriisMatchesClosedForm) {
  const FreeSpace fs{914e6};
  const double lambda = 299'792'458.0 / 914e6;
  const double d = 100.0;
  const double expect = 0.1 * lambda * lambda / (16.0 * M_PI * M_PI * d * d);
  EXPECT_NEAR(fs.rx_power(0.1, d), expect, expect * 1e-12);
}

TEST(PropagationTest, FriisInverseSquare) {
  const FreeSpace fs{914e6};
  EXPECT_NEAR(fs.rx_power(1.0, 100.0) / fs.rx_power(1.0, 200.0), 4.0, 1e-9);
}

TEST(PropagationTest, TwoRayMatchesFriisBelowCrossover) {
  const TwoRayGround tr{914e6, 1.5, 1.5};
  const FreeSpace fs{914e6};
  const double d = tr.crossover_distance() * 0.5;
  EXPECT_DOUBLE_EQ(tr.rx_power(0.2, d), fs.rx_power(0.2, d));
}

TEST(PropagationTest, TwoRayInverseFourthBeyondCrossover) {
  const TwoRayGround tr{914e6, 1.5, 1.5};
  const double d = tr.crossover_distance() * 2.0;
  EXPECT_NEAR(tr.rx_power(1.0, d) / tr.rx_power(1.0, 2.0 * d), 16.0, 1e-9);
}

TEST(PropagationTest, TwoRayCrossoverNearNs2Value) {
  // 4*pi*1.5*1.5/lambda at 914 MHz is ~86 m (the classic NS-2 number).
  const TwoRayGround tr{914e6, 1.5, 1.5};
  EXPECT_NEAR(tr.crossover_distance(), 86.2, 0.5);
}

TEST(PropagationTest, Ns2DefaultThresholdsGiveClassicRanges) {
  // NS-2 lore: 0.28183815 W, RXThresh 3.652e-10 -> 250 m; CSThresh
  // 1.559e-11 -> 550 m under two-ray ground.
  const TwoRayGround tr;
  const PhyParams p;
  EXPECT_NEAR(tr.range_for_threshold(p.tx_power_w, p.rx_threshold_w), 250.0, 2.0);
  EXPECT_NEAR(tr.range_for_threshold(p.tx_power_w, p.cs_threshold_w), 550.0, 4.0);
}

TEST(PropagationTest, ZeroDistanceIsFullPower) {
  const FreeSpace fs;
  EXPECT_DOUBLE_EQ(fs.rx_power(0.5, 0.0), 0.5);
  const TwoRayGround tr;
  EXPECT_DOUBLE_EQ(tr.rx_power(0.5, 0.0), 0.5);
}

TEST(PropagationTest, NakagamiMeanMatchesTwoRay) {
  sim::Rng rng{7};
  const NakagamiFading nak{3.0, rng};
  const TwoRayGround tr;
  const double d = 150.0;
  stats::Summary s;
  for (int i = 0; i < 20000; ++i) s.add(nak.rx_power(0.28, d));
  EXPECT_NEAR(s.mean(), tr.rx_power(0.28, d), tr.rx_power(0.28, d) * 0.03);
}

TEST(PropagationTest, NakagamiVarianceShrinksWithM) {
  sim::Rng r1{7}, r2{7};
  const NakagamiFading rayleigh{1.0, r1};  // m=1: Rayleigh, high variance
  const NakagamiFading steady{8.0, r2};
  stats::Summary a, b;
  for (int i = 0; i < 20000; ++i) {
    a.add(rayleigh.rx_power(1.0, 100.0));
    b.add(steady.rx_power(1.0, 100.0));
  }
  // Coefficient of variation: 1/sqrt(m).
  EXPECT_GT(a.stddev() / a.mean(), 2.0 * (b.stddev() / b.mean()));
  EXPECT_NEAR(a.stddev() / a.mean(), 1.0, 0.1);
  EXPECT_NEAR(b.stddev() / b.mean(), 1.0 / std::sqrt(8.0), 0.05);
}

TEST(PropagationTest, NakagamiMakesEdgeReceptionProbabilistic) {
  // At 250 m the two-ray power sits exactly at the RX threshold; with
  // fading some frames clear it and some do not.
  sim::Rng rng{9};
  const NakagamiFading nak{3.0, rng};
  const PhyParams p;
  int above = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    if (nak.rx_power(p.tx_power_w, 250.0) >= p.rx_threshold_w) ++above;
  }
  EXPECT_GT(above, kN / 10);
  EXPECT_LT(above, kN * 9 / 10);
}

TEST(PropagationTest, NakagamiRejectsBadShape) {
  sim::Rng rng{1};
  EXPECT_THROW(NakagamiFading(0.1, rng), std::invalid_argument);
}

TEST(PropagationTest, ValidatesArguments) {
  EXPECT_THROW(FreeSpace(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WirelessPhy + Channel
// ---------------------------------------------------------------------------

// Raw-phy fixture: nodes with no MAC; we drive the phys directly.
class PhyFixture : public ::testing::Test {
 protected:
  net::Packet make_packet(std::uint64_t uid = 1) {
    net::Packet p;
    p.uid = uid;
    p.mac.emplace();
    return p;
  }
};

TEST_F(PhyFixture, DeliversWithinRange) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({100.0, 0.0});
  std::vector<std::uint64_t> got;
  net.phy(1).set_rx_end_callback([&](net::Packet p, bool ok) {
    if (ok) got.push_back(p.uid);
  });
  net.phy(0).transmit(make_packet(77), 1_ms);
  net.run_for(10_ms);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 77u);
}

TEST_F(PhyFixture, SilentBeyondCarrierSenseRange) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({600.0, 0.0});  // beyond the 550 m CS range
  bool heard = false;
  net.phy(1).set_rx_end_callback([&](net::Packet, bool) { heard = true; });
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  EXPECT_FALSE(heard);
  EXPECT_FALSE(net.phy(1).carrier_busy());
}

TEST_F(PhyFixture, SensedButUndecodableBetweenRanges) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({400.0, 0.0});  // between 250 m (RX) and 550 m (CS)
  bool decoded = false;
  net.phy(1).set_rx_end_callback([&](net::Packet, bool ok) { decoded = decoded || ok; });
  bool went_busy = false;
  net.phy(1).set_carrier_callback([&](bool busy) { went_busy = went_busy || busy; });
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  EXPECT_FALSE(decoded);
  EXPECT_TRUE(went_busy);
}

TEST_F(PhyFixture, CarrierBusyDuringTransmitAndClearsAfter) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({10.0, 0.0});
  net.phy(0).transmit(make_packet(), 2_ms);
  EXPECT_TRUE(net.phy(0).transmitting());
  EXPECT_TRUE(net.phy(0).carrier_busy());
  net.run_for(1_ms);
  EXPECT_TRUE(net.phy(1).carrier_busy());  // receiving
  net.run_for(10_ms);
  EXPECT_FALSE(net.phy(0).carrier_busy());
  EXPECT_FALSE(net.phy(1).carrier_busy());
}

TEST_F(PhyFixture, OverlappingComparablePowersCollide) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({50.0, 0.0});    // receiver in the middle
  net.add_node({100.0, 0.0});   // symmetric second sender
  int ok_count = 0, bad_count = 0;
  net.phy(1).set_rx_end_callback([&](net::Packet, bool ok) { ok ? ++ok_count : ++bad_count; });
  net.phy(0).transmit(make_packet(1), 1_ms);
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{100}),
                                    [&] { net.phy(2).transmit(make_packet(2), 1_ms); });
  net.run_for(10_ms);
  EXPECT_EQ(ok_count, 0);
  EXPECT_GE(bad_count, 1);
  EXPECT_GE(net.phy(1).rx_collision_count(), 1u);
}

TEST_F(PhyFixture, StrongerFirstSignalCapturesOverLateWeakOne) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({10.0, 0.0});    // receiver very close to sender 0
  net.add_node({200.0, 0.0});   // distant interferer (>10 dB weaker)
  std::vector<std::pair<std::uint64_t, bool>> got;
  net.phy(1).set_rx_end_callback(
      [&](net::Packet p, bool ok) { got.emplace_back(p.uid, ok); });
  net.phy(0).transmit(make_packet(1), 1_ms);
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{100}),
                                    [&] { net.phy(2).transmit(make_packet(2), 1_ms); });
  net.run_for(10_ms);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1u);
  EXPECT_TRUE(got[0].second);
}

TEST_F(PhyFixture, LateStrongSignalCapturesReceiver) {
  eblnet::testing::TestNet net;
  net.add_node({200.0, 0.0});   // weak (far) sender starts first
  net.add_node({0.0, 0.0});     // receiver
  net.add_node({10.0, 0.0});    // strong (near) sender starts second
  std::vector<std::pair<std::uint64_t, bool>> got;
  net.phy(1).set_rx_end_callback(
      [&](net::Packet p, bool ok) { got.emplace_back(p.uid, ok); });
  net.phy(0).transmit(make_packet(1), 1_ms);
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{100}),
                                    [&] { net.phy(2).transmit(make_packet(2), 1_ms); });
  net.run_for(10_ms);
  ASSERT_GE(got.size(), 1u);
  // The strong frame must be the one decoded successfully.
  bool strong_ok = false;
  for (const auto& [uid, ok] : got) {
    if (uid == 2 && ok) strong_ok = true;
    if (uid == 1) {
      EXPECT_FALSE(ok);
    }
  }
  EXPECT_TRUE(strong_ok);
}

TEST_F(PhyFixture, HalfDuplexTxKillsOngoingRx) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({100.0, 0.0});
  bool delivered = false;
  net.phy(1).set_rx_end_callback([&](net::Packet, bool ok) { delivered = delivered || ok; });
  net.phy(0).transmit(make_packet(1), 1_ms);
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{200}),
                                    [&] { net.phy(1).transmit(make_packet(2), 1_ms); });
  net.run_for(10_ms);
  EXPECT_FALSE(delivered);
}

TEST_F(PhyFixture, CannotTransmitWhileTransmitting) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.phy(0).transmit(make_packet(), 1_ms);
  EXPECT_THROW(net.phy(0).transmit(make_packet(), 1_ms), std::logic_error);
}

TEST_F(PhyFixture, PropagationDelayIsSpeedOfLight) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({200.0, 0.0});  // within decode range; ~0.67 us away
  Time rx_end{};
  net.phy(1).set_rx_end_callback([&](net::Packet, bool) { rx_end = net.env().now(); });
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  const double prop_s = 200.0 / 299'792'458.0;
  EXPECT_NEAR(rx_end.to_seconds(), 1e-3 + prop_s, 1e-9);
}

TEST_F(PhyFixture, BroadcastReachesAllInRange) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  for (int i = 1; i <= 4; ++i) net.add_node({50.0 * i, 0.0});
  int delivered = 0;
  for (std::size_t i = 1; i <= 4; ++i) {
    net.phy(i).set_rx_end_callback([&](net::Packet, bool ok) { delivered += ok ? 1 : 0; });
  }
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  EXPECT_EQ(delivered, 4);
}

TEST_F(PhyFixture, TxStatisticsCount) {
  eblnet::testing::TestNet net;
  net.add_node({0.0, 0.0});
  net.add_node({10.0, 0.0});
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  net.phy(0).transmit(make_packet(), 1_ms);
  net.run_for(10_ms);
  EXPECT_EQ(net.phy(0).tx_count(), 2u);
  EXPECT_EQ(net.phy(1).rx_ok_count(), 2u);
}

// Detach leaves a hole in the channel's attach-order list and compacts
// once holes outnumber live entries; re-attach appends. Delivery order
// must stay attach order throughout, on the flat loop and the grid path.
TEST_F(PhyFixture, DetachReattachKeepsAttachOrderAcrossCompaction) {
  for (const std::size_t grid_min_phys : {SIZE_MAX, std::size_t{0}}) {
    SCOPED_TRACE(grid_min_phys == 0 ? "grid" : "flat");
    phy::ChannelParams params;
    params.grid_min_phys = grid_min_phys;
    eblnet::testing::TestNet net{1, nullptr, params};
    for (int i = 0; i < 10; ++i) net.add_node({10.0 * i, 0.0});
    const auto receivers = [&] {
      net.phy(0).transmit(make_packet(), 1_ms);
      std::vector<net::NodeId> out;
      for (const auto& r : net.channel().last_reachable()) out.push_back(r.rx->owner());
      net.run_for(10_ms);
      return out;
    };

    net.phy(2).set_down(true);
    net.phy(3).set_down(true);
    net.phy(3).set_down(false);  // re-attached: now after 9
    EXPECT_EQ(receivers(), (std::vector<net::NodeId>{1, 4, 5, 6, 7, 8, 9, 3}));
    // Six holes (2, 3's old entry, 4-7) among 11 entries: the last detach
    // compacts.
    for (std::size_t i : {4, 5, 6, 7}) net.phy(i).set_down(true);
    EXPECT_EQ(net.channel().phy_count(), 5u);
    EXPECT_EQ(receivers(), (std::vector<net::NodeId>{1, 8, 9, 3}));
    net.phy(5).set_down(false);
    net.phy(2).set_down(false);
    EXPECT_EQ(net.channel().phy_count(), 7u);
    EXPECT_EQ(receivers(), (std::vector<net::NodeId>{1, 8, 9, 3, 5, 2}));
    net.phy(8).set_down(true);  // found through the index the compaction renumbered
    EXPECT_EQ(receivers(), (std::vector<net::NodeId>{1, 9, 3, 5, 2}));
  }
}

TEST_F(PhyFixture, GridActivationCountsOnlyAttachedPhys) {
  phy::ChannelParams params;
  params.grid_min_phys = 4;
  eblnet::testing::TestNet net{1, nullptr, params};
  for (int i = 0; i < 5; ++i) net.add_node({10.0 * i, 0.0});
  EXPECT_TRUE(net.channel().grid_active());
  net.phy(1).set_down(true);
  net.phy(3).set_down(true);
  EXPECT_EQ(net.channel().phy_count(), 3u);
  EXPECT_FALSE(net.channel().grid_active());
  net.phy(3).set_down(false);
  EXPECT_TRUE(net.channel().grid_active());
}

}  // namespace
}  // namespace eblnet::phy
