// IntersectionBlockage: corner geometry classification, the NLOS
// around-the-corner power law, and the envelope/culling contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "phy/intersection_blockage.hpp"

namespace eblnet::phy {
namespace {

constexpr double kTxW = 0.28183815;

class IntersectionBlockageTest : public ::testing::Test {
 protected:
  IntersectionBlockageTest() {
    IntersectionBlockageParams p;
    p.half_width_m = 10.0;
    p.corner_loss_db = 10.0;
    model = std::make_unique<IntersectionBlockage>(inner, p);
  }

  std::shared_ptr<TwoRayGround> inner = std::make_shared<TwoRayGround>();
  std::unique_ptr<IntersectionBlockage> model;
};

TEST_F(IntersectionBlockageTest, ClassifiesCorridorsAndCore) {
  // Same north-south corridor.
  EXPECT_TRUE(model->line_of_sight({0.0, -100.0}, {0.0, 50.0}));
  // Same east-west corridor.
  EXPECT_TRUE(model->line_of_sight({-80.0, 0.0}, {40.0, 5.0}));
  // Perpendicular arms, both deep: blocked by the corner building.
  EXPECT_FALSE(model->line_of_sight({0.0, -100.0}, {-80.0, 0.0}));
  // One endpoint inside the crossing core sees both roads.
  EXPECT_TRUE(model->line_of_sight({5.0, -5.0}, {-80.0, 0.0}));
  EXPECT_TRUE(model->line_of_sight({0.0, -100.0}, {5.0, 5.0}));
}

TEST_F(IntersectionBlockageTest, LosPairsSeeInnerModelUnchanged) {
  const mobility::Vec2 a{0.0, -120.0}, b{0.0, 30.0};
  const double d = 150.0;
  EXPECT_DOUBLE_EQ(model->rx_power_between(kTxW, a, b, d), inner->rx_power(kTxW, d));
}

TEST_F(IntersectionBlockageTest, NlosPowerIsCornerDetourPlusCornerLoss) {
  // tx 100 m down the south arm, rx 80 m down the west arm: the detour
  // path is d_t + d_r = 180 m and the corner costs 10 dB.
  const mobility::Vec2 tx{0.0, -100.0}, rx{-80.0, 0.0};
  const double direct = std::hypot(80.0, 100.0);
  const double got = model->rx_power_between(kTxW, tx, rx, direct);
  const double gain = std::pow(10.0, -10.0 / 10.0);  // the ctor's exact expression
  const double expect = gain * inner->rx_power(kTxW, 180.0);
  EXPECT_DOUBLE_EQ(got, expect);
  // Strictly below the unobstructed direct-path power.
  EXPECT_LT(got, inner->rx_power(kTxW, direct));
}

TEST_F(IntersectionBlockageTest, EnvelopeUpperBoundsBothArmsAndIsInner) {
  // The culling contract: the (deterministic, monotone) envelope is the
  // inner LOS envelope, which upper-bounds the NLOS arm too.
  const mobility::Vec2 tx{0.0, -100.0}, rx{-80.0, 0.0};
  const double d = std::hypot(80.0, 100.0);
  EXPECT_DOUBLE_EQ(model->envelope_rx_power(kTxW, d), inner->envelope_rx_power(kTxW, d));
  EXPECT_GE(model->envelope_rx_power(kTxW, d), model->rx_power_between(kTxW, tx, rx, d));
}

TEST_F(IntersectionBlockageTest, IsPositionAwareAndForwardsPairStreams) {
  EXPECT_TRUE(model->position_aware());
  EXPECT_FALSE(model->pair_fade_streams());  // two-ray inner: none

  sim::Rng rng{7};
  auto nakagami = std::make_shared<NakagamiFading>(3.0, rng);
  nakagami->enable_pair_streams(99);
  const IntersectionBlockage wrapped{nakagami, {}};
  EXPECT_TRUE(wrapped.pair_fade_streams());
}

TEST_F(IntersectionBlockageTest, OffCenterIntersectionShiftsTheGeometry) {
  IntersectionBlockageParams p;
  p.center = {1000.0, 500.0};
  p.half_width_m = 10.0;
  const IntersectionBlockage shifted{inner, p};
  EXPECT_TRUE(shifted.line_of_sight({1000.0, 400.0}, {1000.0, 600.0}));
  EXPECT_FALSE(shifted.line_of_sight({1000.0, 400.0}, {900.0, 500.0}));
}

}  // namespace
}  // namespace eblnet::phy
