#include <gtest/gtest.h>

#include "test_net.hpp"

namespace eblnet::mac {
namespace {

using sim::Time;
using namespace sim::time_literals;

net::Packet data_to(net::Env& env, net::NodeId dst, std::size_t payload = 1000,
                    std::uint64_t seq = 0) {
  net::Packet p;
  p.uid = env.alloc_uid();
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = payload;
  p.app_seq = seq;
  p.mac.emplace();
  p.mac->dst = dst;
  return p;
}

TdmaParams small_frame(std::size_t slots = 4) {
  TdmaParams t;
  t.num_slots = slots;
  return t;
}

TEST(MacTdmaTest, SlotAndFrameDurations) {
  TdmaParams t = small_frame(4);
  // PLCP 192 us + (1540 + 34) * 8 / 11e6 + 25 us guard.
  const double slot_s = 192e-6 + (1574.0 * 8.0) / t.data_rate_bps + 25e-6;
  EXPECT_NEAR(t.slot_duration().to_seconds(), slot_s, 1e-9);
  EXPECT_EQ(t.frame_duration(), t.slot_duration() * 4);
}

TEST(MacTdmaTest, UnicastDeliveredInOwnSlot) {
  eblnet::testing::TestNet net;
  const TdmaParams t = small_frame();
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 0);
  auto& b = net.with_tdma(net.add_node({10.0, 0.0}), t, 1);
  std::vector<net::Packet> got;
  b.set_rx_callback([&](net::Packet p) { got.push_back(std::move(p)); });

  a.enqueue(data_to(net.env(), 1));
  net.run_for(Time::seconds(1.0));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].prev_hop, 0u);
  EXPECT_EQ(a.tx_data_count(), 1u);
}

TEST(MacTdmaTest, TransmissionsStartOnlyAtOwnSlotBoundaries) {
  eblnet::testing::TestNet net;
  const TdmaParams t = small_frame(4);
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 2);  // slot index 2
  net.with_tdma(net.add_node({10.0, 0.0}), t, 1);

  // Use the MAC trace to observe transmit instants.
  a.enqueue(data_to(net.env(), 1));
  a.enqueue(data_to(net.env(), 1, 1000, 1));
  net.run_for(Time::seconds(1.0));

  const Time slot = t.slot_duration();
  const Time frame = t.frame_duration();
  for (const auto& rec : net.tracer().records()) {
    if (rec.action == net::TraceAction::kSend && rec.layer == net::TraceLayer::kMac &&
        rec.node == 0) {
      const Time offset = (rec.t - slot * 2) % frame;
      EXPECT_EQ(offset, Time::zero()) << "tx at " << rec.t.to_string();
    }
  }
  EXPECT_EQ(a.tx_data_count(), 2u);
}

TEST(MacTdmaTest, OnePacketPerFramePerNode) {
  eblnet::testing::TestNet net;
  const TdmaParams t = small_frame(4);
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 0);
  auto& b = net.with_tdma(net.add_node({10.0, 0.0}), t, 1);
  int got = 0;
  b.set_rx_callback([&](net::Packet) { ++got; });

  // Keep the sender saturated: its 50-packet ifq is topped up each frame.
  for (int i = 0; i < 40; ++i) a.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
  const Time runtime = Time::seconds(0.1);
  net.run_for(runtime);

  const auto frames = static_cast<int>(runtime / t.frame_duration());
  EXPECT_LE(got, frames + 1);
  EXPECT_GE(got, frames - 1);
}

TEST(MacTdmaTest, BroadcastReachesEveryNode) {
  eblnet::testing::TestNet net;
  const TdmaParams t = small_frame(4);
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 0);
  int got = 0;
  for (unsigned i = 1; i < 4; ++i) {
    auto& m = net.with_tdma(net.add_node({10.0 * i, 0.0}), t, i);
    m.set_rx_callback([&](net::Packet) { ++got; });
  }
  a.enqueue(data_to(net.env(), net::kBroadcastAddress, 500));
  net.run_for(Time::seconds(0.5));
  EXPECT_EQ(got, 3);
}

TEST(MacTdmaTest, UnicastFilteredByDestination) {
  eblnet::testing::TestNet net;
  const TdmaParams t = small_frame(4);
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 0);
  auto& b = net.with_tdma(net.add_node({10.0, 0.0}), t, 1);
  auto& c = net.with_tdma(net.add_node({20.0, 0.0}), t, 2);
  int got_b = 0, got_c = 0;
  b.set_rx_callback([&](net::Packet) { ++got_b; });
  c.set_rx_callback([&](net::Packet) { ++got_c; });
  a.enqueue(data_to(net.env(), 1));
  net.run_for(Time::seconds(0.5));
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
}

TEST(MacTdmaTest, OversizePacketDropped) {
  eblnet::testing::TestNet net;
  TdmaParams t = small_frame(2);
  t.max_packet_bytes = 500;
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), t, 0);
  auto& b = net.with_tdma(net.add_node({10.0, 0.0}), t, 1);
  int got = 0;
  b.set_rx_callback([&](net::Packet) { ++got; });
  a.enqueue(data_to(net.env(), 1, 1000));
  net.run_for(Time::seconds(0.5));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(a.oversize_drop_count(), 1u);
  EXPECT_EQ(net.tracer().drops("SIZE").size(), 1u);
}

TEST(MacTdmaTest, RejectsSlotIndexOutOfRange) {
  eblnet::testing::TestNet net;
  net::Node& n = net.add_node({0.0, 0.0});
  EXPECT_THROW(net.with_tdma(n, small_frame(4), 4), std::invalid_argument);
}

TEST(MacTdmaTest, RejectsNonPositiveDataRate) {
  eblnet::testing::TestNet net;
  net::Node& n = net.add_node({0.0, 0.0});
  TdmaParams t = small_frame(4);
  t.data_rate_bps = 0.0;
  try {
    net.with_tdma(n, t, 0);
    ADD_FAILURE() << "data_rate_bps = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("data_rate_bps"), std::string::npos) << e.what();
  }
}

TEST(MacTdmaTest, NoLinkFailureDetection) {
  eblnet::testing::TestNet net;
  auto& a = net.with_tdma(net.add_node({0.0, 0.0}), small_frame(2), 0);
  EXPECT_FALSE(a.detects_link_failures());
  bool failed = false;
  a.set_tx_fail_callback([&](const net::Packet&) { failed = true; });
  a.enqueue(data_to(net.env(), 1));  // nobody out there
  net.run_for(Time::seconds(1.0));
  EXPECT_FALSE(failed);
}

// Property: with every node saturated, transmissions never overlap —
// the schedule is collision-free by construction. Swept over slot counts
// and packet sizes.
class TdmaExclusivity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TdmaExclusivity, NoTwoTransmissionsOverlap) {
  const auto [num_nodes, payload] = GetParam();
  eblnet::testing::TestNet net;
  TdmaParams t;
  t.num_slots = num_nodes;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    auto& m = net.with_tdma(net.add_node({5.0 * static_cast<double>(i), 0.0}), t,
                            static_cast<unsigned>(i));
    // Saturate: everyone broadcasts constantly.
    for (int k = 0; k < 50; ++k)
      m.enqueue(data_to(net.env(), net::kBroadcastAddress, payload, static_cast<std::uint64_t>(k)));
  }
  net.run_for(Time::seconds(1.0));

  // Reconstruct transmit intervals from the MAC trace; they must be
  // disjoint across the whole network.
  struct Interval {
    Time start, end;
  };
  std::vector<Interval> intervals;
  const double rate = t.data_rate_bps;
  for (const auto& rec : net.tracer().records()) {
    if (rec.action != net::TraceAction::kSend || rec.layer != net::TraceLayer::kMac) continue;
    const Time air = t.plcp_overhead + Time::seconds(static_cast<double>(rec.size + 34) * 8.0 / rate);
    intervals.push_back({rec.t, rec.t + air});
  }
  ASSERT_GT(intervals.size(), num_nodes);  // everyone got slots
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) { return x.start < y.start; });
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    EXPECT_LE(intervals[i - 1].end, intervals[i].start)
        << "overlap at interval " << i << " t=" << intervals[i].start.to_string();
  }
  // And no receiver ever saw a collision.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    EXPECT_EQ(net.phy(i).rx_collision_count(), 0u) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, TdmaExclusivity,
                         ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                                              std::size_t{6}, std::size_t{10}),
                                            ::testing::Values(std::size_t{100},
                                                              std::size_t{1000},
                                                              std::size_t{1500})));

}  // namespace
}  // namespace eblnet::mac
