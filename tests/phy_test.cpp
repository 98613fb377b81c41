#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

// ---------------------------------------------------------------------------
// Carrier and rx-end order
// ---------------------------------------------------------------------------

/// SHA-256 of `data` as 64 lowercase hex digits (FIPS 180-4).
std::string sha256_hex(const std::string& data) {
  static constexpr std::uint32_t k[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string m = data + '\x80';
  while (m.size() % 64 != 56) m += '\0';
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  for (int i = 7; i >= 0; --i) m += static_cast<char>(bits >> (8 * i));
  const auto rotr = [](std::uint32_t x, int n) { return x >> n | x << (32 - n); };
  for (std::size_t off = 0; off < m.size(); off += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        w[i] = w[i] << 8 | static_cast<unsigned char>(m[off + 4 * i + b]);
      }
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t v[8];
    std::copy(h, h + 8, v);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t e = v[4];
      const std::uint32_t a = v[0];
      const std::uint32_t t1 = v[7] + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & v[5]) ^ (~e & v[6])) + k[i] + w[i];
      const std::uint32_t t2 =
          (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & v[1]) ^ (a & v[2]) ^ (v[1] & v[2]));
      std::copy_backward(v, v + 7, v + 8);
      v[4] += t1;
      v[0] = t1 + t2;
    }
    for (std::size_t i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::ostringstream hex;
  for (const std::uint32_t word : h) {
    hex << std::hex;
    hex.width(8);
    hex.fill('0');
    hex << word;
  }
  return hex.str();
}

/// Radios a millimetre apart: every propagation delay rounds to 0 ns, and
/// the received power falls with the number of steps between two radios.
class StepLoss final : public PropagationModel {
 public:
  double rx_power(double tx_power_w, double distance_m) const override {
    constexpr double kGain[] = {1.0, 0.25, 0.04, 0.01, 0.002};
    const auto steps = static_cast<std::size_t>(std::lround(distance_m * 1000.0));
    return tx_power_w * kGain[std::min<std::size_t>(steps, 4)];
  }
};

/// Radios on one Channel (RX threshold 1 W, CS threshold 0.1 W, capture
/// ratio 10) whose MAC side logs every carrier and rx-end callback, with
/// the time in ns. A probe logs, per radio, the carrier and rx-end
/// callbacks seen so far and busy_time() in ns.
class OrderRig {
 public:
  explicit OrderRig(const std::vector<double>& tx_powers)
      : channel_{env_, std::make_shared<StepLoss>()} {
    for (std::size_t i = 0; i < tx_powers.size(); ++i) {
      PhyParams params;
      params.tx_power_w = tx_powers[i];
      params.rx_threshold_w = 1.0;
      params.cs_threshold_w = 0.1;
      params.capture_ratio = 10.0;
      const mobility::Vec2 at{0.001 * static_cast<double>(i), 0.0};
      radios_.push_back(std::make_unique<WirelessPhy>(
          env_, static_cast<net::NodeId>(i), channel_, [at] { return at; }, params));
      WirelessPhy& radio = *radios_.back();
      radio.set_carrier_callback([this, i](bool busy) {
        ++carrier_seen_[i];
        log_ << env_.now().ns() << " r" << i << (busy ? " busy\n" : " idle\n");
        if (on_carrier) on_carrier(i, busy);
      });
      radio.set_rx_end_callback([this, i](net::Packet p, bool ok) {
        ++rx_end_seen_[i];
        log_ << env_.now().ns() << " r" << i << " rx " << p.uid << (ok ? " ok\n" : " bad\n");
        if (on_rx_end) on_rx_end();
      });
    }
    carrier_seen_.resize(radios_.size());
    rx_end_seen_.resize(radios_.size());
  }

  sim::Scheduler& sched() { return env_.scheduler(); }
  WirelessPhy& radio(std::size_t i) { return *radios_[i]; }
  std::size_t size() const { return radios_.size(); }

  /// A signal from outside the channel reaches radio `i`.
  void signal(std::size_t i, std::uint64_t uid, double power_w, Time duration) {
    radio(i).signal_start(packet(uid), power_w, duration);
  }
  void transmit(std::size_t i, std::uint64_t uid, Time duration) {
    radio(i).transmit(packet(uid), duration);
  }
  /// Runs `fn` at `at`, queued now.
  void at(Time at, std::function<void()> fn) {
    sched().schedule_at(at, [fn = std::move(fn)] { fn(); });
  }
  void probe() {
    log_ << env_.now().ns() << " probe";
    for (std::size_t i = 0; i < radios_.size(); ++i) {
      log_ << ' ' << carrier_seen_[i] << '/' << rx_end_seen_[i] << '/'
           << radios_[i]->busy_time().ns();
    }
    log_ << '\n';
  }
  void probe_at(Time t) { at(t, [this] { probe(); }); }
  std::string log() const { return log_.str(); }

  /// MAC-side reactions, set by drive_phy_order.
  std::function<void(std::size_t, bool)> on_carrier;
  std::function<void()> on_rx_end;

 private:
  static net::Packet packet(std::uint64_t uid) {
    net::Packet p;
    p.uid = uid;
    return p;
  }

  net::Env env_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessPhy>> radios_;
  std::vector<std::uint64_t> carrier_seen_;
  std::vector<std::uint64_t> rx_end_seen_;
  std::ostringstream log_;
};

Time us(std::int64_t k) { return Time::microseconds(k); }

/// One seeded run: 3–5 radios with random transmit powers, driven through
/// signal_start, transmit, set_channel_id and set_down at instants on a
/// 1 µs grid, with probes at grid instants queued from the start, by the
/// actions and by rx-end callbacks. A carrier-idle callback sometimes
/// transmits at once and sometimes queues a transmit, as a MAC would.
/// Returns the log.
std::string drive_phy_order(std::uint64_t seed) {
  constexpr double kTxPowers[] = {2.0, 8.0, 30.0, 120.0};
  constexpr double kSignalPowers[] = {0.05, 0.3, 1.5, 6.0, 40.0, 300.0};
  sim::Rng rng{seed};
  std::vector<double> tx_powers(3 + rng.uniform_int(std::uint64_t{3}));
  for (double& p : tx_powers) p = kTxPowers[rng.uniform_int(std::uint64_t{4})];
  OrderRig rig{tx_powers};
  sim::Scheduler& s = rig.sched();
  std::uint64_t uid = 1;
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.uniform_int(n)); };
  const auto later = [&](std::int64_t lo, std::int64_t hi) {
    return s.now() + us(rng.uniform_int(lo, hi));
  };
  const auto try_transmit = [&](std::size_t r) {
    if (!rig.radio(r).transmitting()) rig.transmit(r, uid++, us(rng.uniform_int(1, 8)));
  };
  const auto act = [&] {
    const std::size_t r = pick(rig.size());
    WirelessPhy& radio = rig.radio(r);
    const std::uint64_t op = rng.uniform_int(std::uint64_t{10});
    if (op < 5) {
      if (!radio.down()) {
        rig.signal(r, uid++, kSignalPowers[pick(std::size(kSignalPowers))],
                   us(rng.uniform_int(1, 12)));
      }
    } else if (op < 8) {
      try_transmit(r);
    } else if (op < 9) {
      radio.set_channel_id(radio.channel_id() == 0 ? 1 : 0);
    } else {
      radio.set_down(!radio.down());
    }
    for (std::uint64_t k = rng.uniform_int(std::uint64_t{3}); k > 0; --k) {
      rig.probe_at(later(0, 12));
    }
  };
  rig.on_carrier = [&](std::size_t r, bool busy) {
    if (busy) return;
    const std::uint64_t react = rng.uniform_int(std::uint64_t{10});
    if (react == 0) {
      try_transmit(r);
    } else if (react < 4) {
      rig.at(later(0, 3), [&, r] { try_transmit(r); });
    }
  };
  rig.on_rx_end = [&] {
    if (rng.chance(0.5)) rig.probe_at(later(0, 2));
  };
  for (int i = 0; i < 120; ++i) {
    if (rng.chance(0.6)) {
      rig.at(us(rng.uniform_int(0, 150)), act);
    } else {
      rig.probe_at(us(rng.uniform_int(0, 160)));
    }
  }
  s.run_until(us(400));
  rig.probe();
  return rig.log();
}

TEST(PhyOrderTest, Sha256MatchesKnownDigests) {
  EXPECT_EQ(sha256_hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex(std::string(1000, 'a')),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

// tests/data/phy_order.sha256 holds one line per seed, recorded from a
// build whose phy queued every carrier shot it armed. On a mismatch the
// test names the seeds that differ and prints the whole computed file.
TEST(PhyOrderTest, SeededRunsMatchRecordedDigests) {
  std::ostringstream got;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    got << sha256_hex(drive_phy_order(seed)) << "  seed " << seed << '\n';
  }
  std::ifstream in{EBLNET_TEST_DATA_DIR "/phy_order.sha256"};
  std::stringstream want;
  want << in.rdbuf();
  if (got.str() == want.str()) return;
  std::istringstream got_lines{got.str()}, want_lines{want.str()};
  std::string g, w;
  std::ostringstream differ;
  while (std::getline(got_lines, g)) {
    if (!std::getline(want_lines, w) || g != w) differ << "  " << g << " (recorded: " << w << ")\n";
    w.clear();
  }
  ADD_FAILURE() << "digests differ:\n" << differ.str() << "computed file:\n" << got.str();
}

// The named cases below each break the cover a reserved carrier shot
// relies on, or come close to it: the rx-end shot due at the carrier
// shot's instant moves or goes away. Probes queued right after the
// reception starts sit between the carrier shot's key and any later one.

TEST(PhyOrderTest, CaptureThatEndsEarlierLeavesTheCarrierShotAtTheOldEnd) {
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(6));
  rig.probe_at(us(10));
  rig.at(us(2), [&] { rig.signal(0, 2, 50.0, us(4)); });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "6000 probe 1/0/6000\n"
            "6000 r0 rx 2 ok\n"
            "10000 r0 idle\n"
            "10000 probe 2/1/10000\n");
}

TEST(PhyOrderTest, CaptureThatEndsAtTheSameInstantGoesIdleBeforeItsRxEnd) {
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.at(us(5), [&] { rig.signal(0, 2, 50.0, us(5)); });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "10000 r0 idle\n"
            "10000 probe 2/0/10000\n"
            "10000 r0 rx 2 ok\n");
}

TEST(PhyOrderTest, CollisionExtensionEndsAtTheLaterSignal) {
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.at(us(3), [&] {
    rig.signal(0, 2, 3.0, us(10));
    rig.probe_at(us(13));
  });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "10000 probe 1/0/10000\n"
            "13000 r0 idle\n"
            "13000 r0 rx 1 bad\n"
            "13000 probe 2/1/13000\n");
}

TEST(PhyOrderTest, TransmitAtTheRxEndInstantBeforeTheRxEndAbortsIt) {
  OrderRig rig{{8.0, 1.0}};
  // Queued before the reception starts, so it runs before the rx-end.
  rig.at(us(10), [&] { rig.transmit(0, 2, us(5)); });
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "10000 probe 1/0/10000 0/0/0\n"
            "10000 r1 busy\n"
            "15000 r0 idle\n"
            "15000 r1 idle\n"
            "15000 r1 rx 2 ok\n");
}

TEST(PhyOrderTest, RetuneMidReceptionLeavesALateIdleCheck) {
  // The retune drops the carrier at once, but the shot armed for the
  // aborted frame's end still fires there: a weaker signal that started
  // and ended in between is cleared only then.
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.at(us(4), [&] { rig.radio(0).set_channel_id(1); });
  rig.at(us(6), [&] { rig.signal(0, 2, 0.5, us(2)); });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "4000 r0 idle\n"
            "6000 r0 busy\n"
            "10000 r0 idle\n"
            "10000 probe 4/0/8000\n");
}

TEST(PhyOrderTest, CrashMidReceptionDropsItsShots) {
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.at(us(4), [&] { rig.radio(0).set_down(true); });
  rig.at(us(6), [&] { rig.radio(0).set_down(false); });
  rig.at(us(7), [&] { rig.signal(0, 2, 2.0, us(2)); });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "7000 r0 busy\n"
            "9000 r0 idle\n"
            "9000 r0 rx 2 ok\n"
            "10000 probe 3/1/6000\n");
}

TEST(PhyOrderTest, NoiseThatOutlastsTheReceptionHoldsTheCarrier) {
  OrderRig rig{{1.0}};
  rig.signal(0, 1, 2.0, us(10));
  rig.probe_at(us(10));
  rig.at(us(5), [&] {
    rig.signal(0, 2, 0.15, us(10));
    rig.probe_at(us(15));
  });
  rig.sched().run_until(us(20));
  EXPECT_EQ(rig.log(),
            "0 r0 busy\n"
            "10000 r0 rx 1 ok\n"
            "10000 probe 1/1/10000\n"
            "15000 r0 idle\n"
            "15000 probe 2/1/15000\n");
}

// ---------------------------------------------------------------------------
// Channel fan-out: one queued event per broadcast
// ---------------------------------------------------------------------------

/// A sender at the origin and receivers on the x axis at `xs` metres,
/// with the default PhyParams (decode to 250 m, sense to 550 m) under
/// two-ray ground. Counts each receiver's carrier-busy callbacks and
/// decoded frames.
class FanOutRig {
 public:
  explicit FanOutRig(const std::vector<double>& xs)
      : channel_{env_, std::make_shared<TwoRayGround>()}, busy_(xs.size() + 1) {
    add(0.0);
    for (const double x : xs) add(x);
  }

  net::Env& env() { return env_; }
  sim::Scheduler& sched() { return env_.scheduler(); }
  Channel& channel() { return channel_; }
  void broadcast() { radios_[0]->transmit(net::Packet{}, Time::milliseconds(1)); }
  /// Receivers whose carrier went busy so far.
  std::size_t sensed() const {
    return static_cast<std::size_t>(std::count_if(busy_.begin(), busy_.end(),
                                                  [](int b) { return b > 0; }));
  }
  int decoded() const { return decoded_; }
  static Time delay(double x) { return Time::seconds(x / 299'792'458.0); }

 private:
  void add(double x) {
    const std::size_t i = radios_.size();
    radios_.push_back(std::make_unique<WirelessPhy>(
        env_, static_cast<net::NodeId>(i), channel_, [x] { return mobility::Vec2{x, 0.0}; }));
    if (i == 0) return;
    radios_.back()->set_carrier_callback([this, i](bool busy) { busy_[i] += busy ? 1 : 0; });
    radios_.back()->set_rx_end_callback([this](net::Packet, bool ok) { decoded_ += ok ? 1 : 0; });
  }

  net::Env env_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessPhy>> radios_;
  std::vector<int> busy_;
  int decoded_{0};
};

TEST(ChannelFanOutTest, OnlyReceiversThatStartDecodingCopyTheFrame) {
  // Three receivers decode (within 250 m); four only sense the carrier.
  FanOutRig rig{{100.0, 150.0, 200.0, 300.0, 350.0, 400.0, 450.0}};
  const std::size_t before = rig.env().packet_pool().total_count();
  rig.broadcast();
  EXPECT_EQ(rig.channel().last_reachable().size(), 7u);
  rig.sched().run();
  EXPECT_EQ(rig.sensed(), 7u);
  EXPECT_EQ(rig.decoded(), 3);
  // One pooled copy per reception in progress, none for carrier only.
  EXPECT_EQ(rig.env().packet_pool().total_count() - before, 3u);
}

TEST(ChannelFanOutTest, RunOneRunsExactlyOneDeliveryOfABroadcast) {
  // Distinct delays, then two receivers at one distance (one instant).
  FanOutRig rig{{300.0, 100.0, 200.0, 400.0, 400.0}};
  sim::Scheduler& s = rig.sched();
  rig.broadcast();
  // The sender's carrier shot, and one event for the whole broadcast.
  EXPECT_EQ(s.pending_count(), 2u);
  const Time arrivals[] = {FanOutRig::delay(100.0), FanOutRig::delay(200.0),
                           FanOutRig::delay(300.0), FanOutRig::delay(400.0),
                           FanOutRig::delay(400.0)};
  for (std::size_t k = 1; k <= 5; ++k) {
    SCOPED_TRACE(::testing::Message() << "delivery " << k);
    EXPECT_EQ(s.run(1), 1u);
    EXPECT_EQ(rig.sensed(), k);
    EXPECT_EQ(s.executed_count(), k);
    EXPECT_EQ(s.now(), arrivals[k - 1]);
  }
}

TEST(ChannelFanOutTest, RunUntilBetweenTwoDeliveriesStopsBetweenThem) {
  FanOutRig rig{{100.0, 200.0, 300.0}};
  sim::Scheduler& s = rig.sched();
  rig.broadcast();
  const Time between = FanOutRig::delay(150.0);
  EXPECT_EQ(s.run_until(between), 1u);
  EXPECT_EQ(rig.sensed(), 1u);
  EXPECT_EQ(s.now(), between);
  EXPECT_EQ(s.run_until(FanOutRig::delay(300.0)), 2u);
  EXPECT_EQ(rig.sensed(), 3u);
}

// ---------------------------------------------------------------------------
// Channel order: seeded broadcasts through Channel::transmit
// ---------------------------------------------------------------------------

/// Radios with the default PhyParams at random spots of a square, on one
/// Channel under two-ray ground or keyed Nakagami fading. Each logs its
/// carrier and rx-end callbacks and every read of its position, with the
/// time in ns. While a delivery fault is active the channel reads a
/// receiver's position once per live delivery, just before the fault's
/// veto and the signal start, so the log then carries the instant and
/// the receiver of every signal start too.
class ChannelRig {
 public:
  ChannelRig(sim::Rng& rng, std::size_t radios, double side_m, bool nakagami)
      : env_{rng.next_u64()}, channel_{env_, propagation(env_, nakagami)} {
    for (std::size_t i = 0; i < radios; ++i) {
      const mobility::Vec2 at{rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)};
      radios_.push_back(std::make_unique<WirelessPhy>(
          env_, static_cast<net::NodeId>(i), channel_, [this, i, at] {
            log_ << env_.now().ns() << " r" << i << " pos\n";
            return at;
          }));
      WirelessPhy& radio = *radios_.back();
      radio.set_carrier_callback([this, i](bool busy) {
        log_ << env_.now().ns() << " r" << i << (busy ? " busy\n" : " idle\n");
        if (on_carrier) on_carrier(i, busy);
      });
      radio.set_rx_end_callback([this, i](net::Packet p, bool ok) {
        log_ << env_.now().ns() << " r" << i << " rx " << p.uid << (ok ? " ok\n" : " bad\n");
        if (on_rx_end) on_rx_end(i);
      });
    }
  }

  net::Env& env() { return env_; }
  sim::Scheduler& sched() { return env_.scheduler(); }
  WirelessPhy& radio(std::size_t i) { return *radios_[i]; }
  std::size_t size() const { return radios_.size(); }

  /// Radio `i` transmits a fresh frame unless it is down or transmitting.
  void transmit(std::size_t i, Time duration) {
    if (radio(i).down() || radio(i).transmitting()) return;
    log_ << env_.now().ns() << " r" << i << " tx " << next_uid_ << '\n';
    net::Packet p;
    p.uid = next_uid_++;
    radio(i).transmit(std::move(p), duration);
  }
  void set_down(std::size_t i, bool down) {
    log_ << env_.now().ns() << " r" << i << (down ? " down\n" : " up\n");
    radio(i).set_down(down);
  }
  void at(Time at, std::function<void()> fn) {
    sched().schedule_at(at, [fn = std::move(fn)] { fn(); });
  }
  void probe() {
    log_ << env_.now().ns() << " probe " << sched().executed_count();
    for (const auto& r : radios_) {
      log_ << ' ' << r->receiving() << r->carrier_busy() << '/' << r->rx_ok_count() << '/'
           << r->rx_collision_count() << '/' << r->busy_time().ns();
    }
    log_ << '\n';
  }
  void note(const std::string& line) { log_ << line << '\n'; }
  std::string log() const { return log_.str(); }

  /// MAC-side reactions, set by drive_channel_order.
  std::function<void(std::size_t, bool)> on_carrier;
  std::function<void(std::size_t)> on_rx_end;

 private:
  static std::shared_ptr<PropagationModel> propagation(net::Env& env, bool nakagami) {
    if (!nakagami) return std::make_shared<TwoRayGround>();
    auto fading = std::make_shared<NakagamiFading>(1.5, env.rng());
    fading->enable_pair_streams(env.seed() ^ kPairFadeSeedTag);
    return fading;
  }

  net::Env env_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessPhy>> radios_;
  std::uint64_t next_uid_{1};
  std::ostringstream log_;
};

/// One seeded run: 3–12 radios (the flat loop) or 16–28 (the grid) in a
/// square wide enough that some pairs decode, some only sense and some
/// miss each other. 80 transmits at instants on a 10 µs grid, a
/// third of them nudged by up to 2 µs, so equal-time transmits and
/// interleaved arrivals of two broadcasts both occur. Some transmits take
/// a radio down a moment later and back up after that, so a signal in
/// flight meets a detached receiver or a recycled slot. Carrier and
/// rx-end callbacks sometimes transmit at once (from inside a delivery)
/// or queue a transmit or a probe. Three runs in four keep a packet
/// error fault active throughout (so every delivery is logged), and some
/// add a region blackout for a while. The clock advances by run_until to
/// random instants and by run(k) for small k, each step logged with
/// now() and executed_count(). Returns the log.
std::string drive_channel_order(std::uint64_t seed) {
  sim::Rng rng{seed};
  const bool grid = rng.chance(0.5);
  const std::size_t n = grid ? 16 + rng.uniform_int(std::uint64_t{13})
                             : 3 + rng.uniform_int(std::uint64_t{10});
  const double side_m = grid ? 1500.0 : 700.0;
  const bool nakagami = rng.chance(0.5);
  ChannelRig rig{rng, n, side_m, nakagami};
  sim::Scheduler& s = rig.sched();
  const auto pick = [&] { return static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n})); };
  const auto airtime = [&] { return us(rng.uniform_int(1, 40)); };
  const auto ns = [](std::int64_t k) { return Time::nanoseconds(k); };

  sim::FaultPlan plan;
  if (rng.chance(0.75)) {
    constexpr double kRates[] = {0.0, 0.1, 0.3};
    const std::uint32_t tx = rng.chance(0.5) ? sim::kAnyNode : static_cast<std::uint32_t>(pick());
    plan.link_per(Time::zero(), Time::zero(), kRates[rng.uniform_int(std::uint64_t{3})], tx);
  }
  if (rng.chance(0.3)) {
    plan.blackout(us(rng.uniform_int(0, 1500)), us(rng.uniform_int(100, 800)),
                  rng.uniform(0.0, side_m), rng.uniform(0.0, side_m), rng.uniform(100.0, 600.0));
  }
  rig.env().install_faults(plan);

  rig.on_carrier = [&](std::size_t r, bool busy) {
    const std::uint64_t react = rng.uniform_int(std::uint64_t{20});
    if (busy) {
      if (react == 0) rig.transmit(r, airtime());
      return;
    }
    if (react < 2) {
      rig.transmit(r, airtime());
    } else if (react < 8) {
      rig.at(s.now() + ns(rng.uniform_int(0, 3000)), [&, r] { rig.transmit(r, airtime()); });
    }
  };
  rig.on_rx_end = [&](std::size_t r) {
    const std::uint64_t react = rng.uniform_int(std::uint64_t{10});
    if (react == 0) {
      rig.transmit(r, airtime());
    } else if (react < 4) {
      rig.at(s.now() + ns(rng.uniform_int(0, 2000)), [&] { rig.probe(); });
    }
  };
  for (int i = 0; i < 80; ++i) {
    Time t = us(10 * rng.uniform_int(0, 200));
    if (rng.chance(0.33)) t = t + ns(rng.uniform_int(0, 2000));
    const std::size_t r = pick();
    rig.at(t, [&, r] {
      rig.transmit(r, airtime());
      if (!rng.chance(0.2)) return;
      const std::size_t victim = pick();
      const Time down_at = s.now() + ns(rng.uniform_int(0, 2000));
      const Time up_at = down_at + ns(rng.uniform_int(0, 3000));
      rig.at(down_at, [&, victim] {
        if (!rig.radio(victim).down()) rig.set_down(victim, true);
      });
      rig.at(up_at, [&, victim] {
        if (rig.radio(victim).down()) rig.set_down(victim, false);
      });
    });
  }
  for (int i = 0; i < 40; ++i) rig.at(ns(rng.uniform_int(0, 2'100'000)), [&] { rig.probe(); });

  const Time end = us(2100);
  while (s.now() < end) {
    std::uint64_t ran;
    if (rng.chance(0.5)) {
      ran = s.run_until(s.now() + ns(rng.uniform_int(0, 4000)));
    } else {
      ran = s.run(rng.uniform_int(std::uint64_t{5}));
    }
    rig.note("step " + std::to_string(s.now().ns()) + ' ' + std::to_string(ran) + ' ' +
             std::to_string(s.executed_count()));
  }
  // Drain what is queued, with no more reactions, so the run ends.
  rig.on_carrier = nullptr;
  rig.on_rx_end = nullptr;
  s.run();
  rig.probe();
  return rig.log();
}

// tests/data/channel_order.sha256 holds one line per seed, recorded from
// a build whose channel queued one event per receiver of a broadcast. On
// a mismatch the test names the seeds that differ and prints the whole
// computed file.
TEST(ChannelOrderTest, SeededRunsMatchRecordedDigests) {
  std::ostringstream got;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    got << sha256_hex(drive_channel_order(seed)) << "  seed " << seed << '\n';
  }
  std::ifstream in{EBLNET_TEST_DATA_DIR "/channel_order.sha256"};
  std::stringstream want;
  want << in.rdbuf();
  if (got.str() == want.str()) return;
  std::istringstream got_lines{got.str()}, want_lines{want.str()};
  std::string g, w;
  std::ostringstream differ;
  while (std::getline(got_lines, g)) {
    if (!std::getline(want_lines, w) || g != w) differ << "  " << g << " (recorded: " << w << ")\n";
    w.clear();
  }
  ADD_FAILURE() << "digests differ:\n" << differ.str() << "computed file:\n" << got.str();
}

}  // namespace
}  // namespace eblnet::phy
