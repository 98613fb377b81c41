#include <gtest/gtest.h>

#include "test_net.hpp"

namespace eblnet::mac {
namespace {

using sim::Time;
using namespace sim::time_literals;

net::Packet data_to(net::Env& env, net::NodeId dst, std::size_t payload = 1000,
                    std::uint64_t seq = 0) {
  net::Packet p;
  p.uid = env.alloc_uid();  // receivers dedup on uid, so it must be unique
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = payload;
  p.app_seq = seq;
  p.mac.emplace();
  p.mac->dst = dst;
  return p;
}

class Mac80211Test : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net;

  /// Two nodes 10 m apart with 802.11 MACs; returns their MAC refs.
  std::pair<Mac80211&, Mac80211&> make_pair(Mac80211Params params = {}) {
    auto& a = net.with_80211(net.add_node({0.0, 0.0}), params);
    auto& b = net.with_80211(net.add_node({10.0, 0.0}), params);
    return {a, b};
  }
};

TEST_F(Mac80211Test, UnicastDeliveredAndAcked) {
  auto [a, b] = make_pair();
  std::vector<net::Packet> got;
  b.set_rx_callback([&](net::Packet p) { got.push_back(std::move(p)); });
  bool failed = false;
  a.set_tx_fail_callback([&](const net::Packet&) { failed = true; });

  a.enqueue(data_to(net.env(), 1));
  net.run_for(100_ms);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].prev_hop, 0u);
  EXPECT_FALSE(failed);
  EXPECT_EQ(a.tx_retry_count(), 0u);
  // Receiver transmitted exactly one frame: the ACK.
  EXPECT_EQ(net.phy(1).tx_count(), 1u);
}

TEST_F(Mac80211Test, DeliveryTimingMatchesDifsPlusAirtime) {
  Mac80211Params params;  // 11 Mb/s data, 192 us PLCP, 50 us DIFS
  auto [a, b] = make_pair(params);
  Time delivered{};
  b.set_rx_callback([&](net::Packet) { delivered = net.env().now(); });

  a.enqueue(data_to(net.env(), 1, 1000));
  net.run_for(100_ms);

  // DIFS + PLCP + (1000 payload + 34 MAC hdr) * 8 / data_rate, plus ~30 ns
  // of propagation.
  const double expect_s = 50e-6 + 192e-6 + (1034.0 * 8.0) / params.data_rate_bps;
  EXPECT_NEAR(delivered.to_seconds(), expect_s, 2e-6);
}

TEST_F(Mac80211Test, BroadcastHasNoAck) {
  auto& a = net.with_80211(net.add_node({0.0, 0.0}));
  auto& b = net.with_80211(net.add_node({10.0, 0.0}));
  auto& c = net.with_80211(net.add_node({20.0, 0.0}));
  (void)a;
  int got_b = 0, got_c = 0;
  b.set_rx_callback([&](net::Packet) { ++got_b; });
  c.set_rx_callback([&](net::Packet) { ++got_c; });

  net.node(0).mac()->enqueue(data_to(net.env(), net::kBroadcastAddress, 100));
  net.run_for(100_ms);

  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(net.phy(1).tx_count(), 0u);  // no ACK for broadcast
  EXPECT_EQ(net.phy(2).tx_count(), 0u);
  EXPECT_EQ(net.phy(0).tx_count(), 1u);  // and no retransmission
}

TEST_F(Mac80211Test, UnreachableUnicastRetriesThenFails) {
  Mac80211Params params;
  auto& a = net.with_80211(net.add_node({0.0, 0.0}), params);
  net.add_node({600.0, 0.0});  // beyond radio range, no MAC needed

  int failures = 0;
  a.set_tx_fail_callback([&](const net::Packet&) { ++failures; });
  a.enqueue(data_to(net.env(), 1));
  net.run_for(2_s);

  EXPECT_EQ(failures, 1);
  EXPECT_EQ(a.tx_drop_count(), 1u);
  // Original + short_retry_limit retransmissions.
  EXPECT_EQ(a.tx_data_count(), 1u + params.short_retry_limit);
  EXPECT_EQ(a.tx_retry_count(), params.short_retry_limit);
}

TEST_F(Mac80211Test, QueueDrainsInOrder) {
  auto [a, b] = make_pair();
  std::vector<std::uint64_t> got;
  b.set_rx_callback([&](net::Packet p) { got.push_back(p.app_seq); });

  for (std::uint64_t i = 0; i < 20; ++i) a.enqueue(data_to(net.env(), 1, 500, i));
  net.run_for(1_s);

  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
}

TEST_F(Mac80211Test, TwoContendingSendersBothComplete) {
  auto& a = net.with_80211(net.add_node({0.0, 0.0}));
  auto& b = net.with_80211(net.add_node({10.0, 0.0}));
  auto& rx = net.with_80211(net.add_node({5.0, 5.0}));
  int from_a = 0, from_b = 0;
  rx.set_rx_callback([&](net::Packet p) { (p.prev_hop == 0 ? from_a : from_b) += 1; });

  for (int i = 0; i < 25; ++i) {
    a.enqueue(data_to(net.env(), 2, 800, static_cast<std::uint64_t>(i)));
    b.enqueue(data_to(net.env(), 2, 800, static_cast<std::uint64_t>(i)));
  }
  net.run_for(2_s);

  // CSMA/CA + ACK retries deliver everything despite contention.
  EXPECT_EQ(from_a, 25);
  EXPECT_EQ(from_b, 25);
}

TEST_F(Mac80211Test, RtsCtsExchangeDeliversData) {
  Mac80211Params params;
  params.rts_threshold = 0;  // RTS for everything
  auto [a, b] = make_pair(params);
  int got = 0;
  b.set_rx_callback([&](net::Packet) { ++got; });

  for (int i = 0; i < 5; ++i) a.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
  net.run_for(1_s);

  EXPECT_EQ(got, 5);
  // Sender's phy transmitted RTS + DATA per packet (>= 10 frames).
  EXPECT_GE(net.phy(0).tx_count(), 10u);
  // Receiver's phy transmitted CTS + ACK per packet.
  EXPECT_GE(net.phy(1).tx_count(), 10u);
}

TEST_F(Mac80211Test, HiddenTerminalsCollideWithoutRts) {
  // Shrink carrier sense to the decode range so the outer nodes cannot
  // hear each other but both reach the middle.
  phy::PhyParams short_cs;
  short_cs.cs_threshold_w = short_cs.rx_threshold_w;

  auto& a = net.with_80211(net.add_node({0.0, 0.0}, short_cs));
  auto& mid = net.with_80211(net.add_node({240.0, 0.0}, short_cs));
  auto& c = net.with_80211(net.add_node({480.0, 0.0}, short_cs));
  (void)mid;

  for (int i = 0; i < 30; ++i) {
    a.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
    c.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
  }
  net.run_for(3_s);

  // The hidden pair must have produced collisions at the middle receiver.
  EXPECT_GT(net.phy(1).rx_collision_count(), 0u);
}

TEST_F(Mac80211Test, NavDefersThirdParty) {
  // a sends a long RTS-protected frame to b; c overhears the RTS/CTS and
  // must defer its own transmission until the exchange finishes.
  Mac80211Params params;
  params.rts_threshold = 0;
  auto& a = net.with_80211(net.add_node({0.0, 0.0}), params);
  auto& b = net.with_80211(net.add_node({10.0, 0.0}), params);
  auto& c = net.with_80211(net.add_node({5.0, 5.0}), params);
  (void)b;

  Time c_delivered{};
  b.set_rx_callback([&](net::Packet p) {
    if (p.prev_hop == 2) c_delivered = net.env().now();
  });

  a.enqueue(data_to(net.env(), 1, 1500));
  // c wants to talk to b an instant later, while a's exchange is underway.
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{300}),
                                    [&] { c.enqueue(data_to(net.env(), 1, 100)); });
  net.run_for(100_ms);

  // a's full exchange: RTS+CTS+DATA+ACK at basic/data rates ~ 2 ms.
  EXPECT_GT(c_delivered.to_seconds(), 2e-3);
}

TEST_F(Mac80211Test, IfqOverflowDropsAreTraced) {
  auto& a = net.with_80211(net.add_node({0.0, 0.0}), {}, /*ifq_capacity=*/5);
  net.with_80211(net.add_node({10.0, 0.0}));
  for (int i = 0; i < 50; ++i) a.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
  net.run_for(10_ms);
  EXPECT_GT(net.tracer().drops("IFQ").size(), 0u);
}

TEST_F(Mac80211Test, RejectsNonPositiveSlotTimeAndRates) {
  using Mutator = void (*)(Mac80211Params&);
  const std::pair<const char*, Mutator> bad[] = {
      {"slot_time", [](Mac80211Params& p) { p.slot_time = Time::zero(); }},
      {"data_rate_bps", [](Mac80211Params& p) { p.data_rate_bps = 0.0; }},
      {"basic_rate_bps", [](Mac80211Params& p) { p.basic_rate_bps = 0.0; }},
  };
  for (const auto& [field, mutate] : bad) {
    Mac80211Params params;
    mutate(params);
    try {
      net.with_80211(net.add_node({0.0, 0.0}), params);
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
    }
  }
}

TEST_F(Mac80211Test, EifsDefersAccessAfterCorruptedFrame) {
  // Two bare phys (nodes 1, 2) collide at node 0, whose MAC then wants to
  // transmit. Its access must wait EIFS from the end of the corrupted
  // reception, not just DIFS.
  Mac80211Params params;
  auto& a = net.with_80211(net.add_node({0.0, 0.0}), params);
  net.add_node({50.0, 0.0});
  net.add_node({-50.0, 0.0});

  // Overlapping 1 ms bursts from the bare phys -> corrupted rx at node 0,
  // ending at t = 1 ms (plus ~0.2 us propagation).
  net::Packet j1 = data_to(net.env(), 0, 100);
  net::Packet j2 = data_to(net.env(), 0, 100);
  net.phy(1).transmit(std::move(j1), 1_ms);
  net.phy(2).transmit(std::move(j2), 1_ms);

  // Node 0 gets a frame to send mid-collision (destination unreachable is
  // fine; we only care about the first transmission instant).
  net.env().scheduler().schedule_in(Time::microseconds(std::int64_t{500}), [&] {
    a.enqueue(data_to(net.env(), 9, 100));
  });
  net.run_for(50_ms);

  Time first_tx = Time::max();
  for (const auto& rec : net.tracer().records()) {
    if (rec.action == net::TraceAction::kSend && rec.layer == net::TraceLayer::kMac &&
        rec.node == 0 && rec.t < first_tx) {
      first_tx = rec.t;
    }
  }
  ASSERT_LT(first_tx, Time::max());
  // EIFS = SIFS + ack airtime at basic rate + DIFS past the rx end (1 ms).
  const double eifs_s =
      params.eifs(static_cast<double>(params.ack_bytes) * 8.0).to_seconds();
  EXPECT_GE(first_tx.to_seconds(), 1e-3 + eifs_s - 1e-9);
}

TEST_F(Mac80211Test, CleanReceptionClearsEifsPenalty) {
  // After the collision, a good frame arrives; the EIFS penalty must not
  // outlive it (the standard resumes DIFS-based access).
  auto& a = net.with_80211(net.add_node({0.0, 0.0}));
  net.add_node({50.0, 0.0});
  net.add_node({-50.0, 0.0});

  net.phy(1).transmit(data_to(net.env(), 0, 100), 1_ms);
  net.phy(2).transmit(data_to(net.env(), 0, 100), 1_ms);  // collision ends at 1 ms
  net.env().scheduler().schedule_in(2_ms, [&] {
    net.phy(1).transmit(data_to(net.env(), net::kBroadcastAddress, 50), 1_ms);  // clean frame
  });
  net.env().scheduler().schedule_in(Time::milliseconds(4), [&] {
    a.enqueue(data_to(net.env(), 9, 100));
  });
  net.run_for(50_ms);

  Time first_tx = Time::max();
  for (const auto& rec : net.tracer().records()) {
    if (rec.action == net::TraceAction::kSend && rec.layer == net::TraceLayer::kMac &&
        rec.node == 0 && rec.t < first_tx) {
      first_tx = rec.t;
    }
  }
  ASSERT_LT(first_tx, Time::max());
  // Enqueued at 4 ms on an idle medium that has been quiet since 3 ms:
  // access after plain DIFS, i.e. well before 4 ms + EIFS.
  EXPECT_LT(first_tx.to_seconds(), 4e-3 + 4e-4);
}

TEST_F(Mac80211Test, FlushNextHopEmptiesMatchingPackets) {
  auto [a, b] = make_pair();
  (void)b;
  for (int i = 0; i < 10; ++i) a.enqueue(data_to(net.env(), 1, 1000, static_cast<std::uint64_t>(i)));
  const auto flushed = a.flush_next_hop(1);
  // One packet may already be in service; the rest were queued.
  EXPECT_GE(flushed.size(), 8u);
  for (const auto& p : flushed) EXPECT_EQ(p.mac->dst, 1u);
}

TEST_F(Mac80211Test, DuplicateWindowSpansLast1024DistinctUids) {
  // A frame whose uid the receiver already accepted (a retransmission
  // whose ACK was lost) is ACKed but not delivered again, as long as the
  // uid is among the last 1024 distinct uids accepted.
  constexpr std::size_t kQueue = 2048;
  auto& a = net.with_80211(net.add_node({0.0, 0.0}), {}, kQueue);
  auto& b = net.with_80211(net.add_node({10.0, 0.0}), {}, kQueue);
  std::vector<std::uint64_t> got;
  b.set_rx_callback([&](net::Packet p) { got.push_back(p.uid); });
  const auto frame = [&](std::uint64_t uid) {
    net::Packet p = data_to(net.env(), 1, 20);
    p.uid = uid;
    return p;
  };
  a.enqueue(frame(1));
  for (std::uint64_t u = 2; u <= 1024; ++u) a.enqueue(frame(u));  // 1023 newer uids
  a.enqueue(frame(1));     // still inside the window: a duplicate
  a.enqueue(frame(1025));  // the 1024th newer uid pushes uid 1 out
  a.enqueue(frame(1));     // so this copy is accepted
  net.run_for(Time::seconds(std::int64_t{10}));

  ASSERT_EQ(got.size(), 1026u);
  EXPECT_EQ(b.rx_dup_count(), 1u);
  EXPECT_EQ(got[1023], 1024u);
  EXPECT_EQ(got[1024], 1025u);
  EXPECT_EQ(got[1025], 1u);
}

TEST(UidHistoryTest, WindowIsTheLast1024DistinctUids) {
  UidHistory h;
  EXPECT_FALSE(h.seen_or_record(7));
  for (std::uint64_t u = 1000; u < 1000 + UidHistory::kWindow - 1; ++u) {
    EXPECT_FALSE(h.seen_or_record(u));
  }
  // 1023 newer uids: 7 is the oldest remembered, still a duplicate, and
  // seeing it again does not refresh its age.
  EXPECT_TRUE(h.seen_or_record(7));
  EXPECT_TRUE(h.seen_or_record(1000));
  EXPECT_FALSE(h.seen_or_record(5000));  // 1024th newer uid evicts 7
  EXPECT_FALSE(h.seen_or_record(7));     // accepted, recorded anew (evicts 1000)
  EXPECT_TRUE(h.seen_or_record(7));
  // The wrapped ring keeps evicting oldest first.
  EXPECT_FALSE(h.seen_or_record(1000));  // evicts 1001
  EXPECT_TRUE(h.seen_or_record(1002));
  EXPECT_FALSE(h.seen_or_record(1001));
}

}  // namespace
}  // namespace eblnet::mac
