// EDCA conformance: per-AC AIFS/CW ordering, internal-collision
// arbitration, the broadcast fire-and-forget contract, and the fault
// flush — the properties DESIGN.md §3.11 promises of the 802.11p MAC.

#include <gtest/gtest.h>

#include "core/campaign/scenario_key.hpp"
#include "core/scenario_builder.hpp"
#include "test_net.hpp"

namespace eblnet::mac {
namespace {

using sim::Time;
using namespace sim::time_literals;

net::Packet bcast(net::Env& env, std::uint8_t priority, std::size_t payload = 200,
                  std::uint64_t seq = 0) {
  net::Packet p;
  p.uid = env.alloc_uid();
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = payload;
  p.app_seq = seq;
  p.priority = priority;
  p.mac.emplace();
  p.mac->dst = net::kBroadcastAddress;
  return p;
}

net::Packet data_to(net::Env& env, net::NodeId dst, std::uint8_t priority = 0,
                    std::size_t payload = 1000) {
  net::Packet p = bcast(env, priority, payload);
  p.mac->dst = dst;
  return p;
}

class EdcaTest : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net;
};

TEST_F(EdcaTest, PriorityToAccessCategoryFollows8021D) {
  EXPECT_EQ(ac_for_priority(1), AccessCategory::kBackground);
  EXPECT_EQ(ac_for_priority(2), AccessCategory::kBackground);
  EXPECT_EQ(ac_for_priority(0), AccessCategory::kBestEffort);
  EXPECT_EQ(ac_for_priority(3), AccessCategory::kBestEffort);
  EXPECT_EQ(ac_for_priority(4), AccessCategory::kVideo);
  EXPECT_EQ(ac_for_priority(5), AccessCategory::kVideo);
  EXPECT_EQ(ac_for_priority(6), AccessCategory::kVoice);
  EXPECT_EQ(ac_for_priority(7), AccessCategory::kVoice);
}

TEST_F(EdcaTest, BroadcastDeliveredToAllNeighboursWithoutAck) {
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  auto& b = net.with_edca(net.add_node({10.0, 0.0}));
  auto& c = net.with_edca(net.add_node({20.0, 0.0}));
  (void)a;
  int got_b = 0, got_c = 0;
  b.set_rx_callback([&](net::Packet) { ++got_b; });
  c.set_rx_callback([&](net::Packet) { ++got_c; });

  net.node(0).mac()->enqueue(bcast(net.env(), 5));
  net.run_for(100_ms);

  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(net.phy(1).tx_count(), 0u);  // no ACK for broadcast
  EXPECT_EQ(net.phy(2).tx_count(), 0u);
  EXPECT_EQ(net.phy(0).tx_count(), 1u);  // and no retransmission
}

TEST_F(EdcaTest, BroadcastIsNeverRetriedEvenUnheard) {
  // A broadcast into empty air (the only neighbour is far out of range)
  // completes unconditionally: one transmission, no retries, no drop.
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  net.add_node({5000.0, 0.0});

  bool failed = false;
  a.set_tx_fail_callback([&](const net::Packet&) { failed = true; });
  a.enqueue(bcast(net.env(), 7));
  net.run_for(1_s);

  EXPECT_EQ(net.phy(0).tx_count(), 1u);
  EXPECT_EQ(a.tx_data_count(), 1u);
  EXPECT_EQ(a.tx_drop_count(), 0u);
  EXPECT_FALSE(failed);
}

TEST_F(EdcaTest, FirstBroadcastTimingIsAifsPlusAirtime) {
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  auto& b = net.with_edca(net.add_node({10.0, 0.0}));
  (void)a;
  Time delivered{};
  b.set_rx_callback([&](net::Packet) { delivered = net.env().now(); });

  // Priority 5 -> AC_VI: AIFS = SIFS + 3 slots = 32 + 39 us. A frame
  // arriving to an idle medium takes post-AIFS immediate access (no
  // backoff draw), so delivery = AIFS + PLCP + (200+34) B at 6 Mb/s.
  net.node(0).mac()->enqueue(bcast(net.env(), 5));
  net.run_for(100_ms);

  const EdcaParams p;
  const double expect_s = 71e-6 + 40e-6 + (234.0 * 8.0) / p.basic_rate_bps;
  EXPECT_NEAR(delivered.to_seconds(), expect_s, 2e-6);
}

TEST_F(EdcaTest, UnicastAckedAndUnreachableUnicastRetriesThenFails) {
  EdcaParams params;
  auto& a = net.with_edca(net.add_node({0.0, 0.0}), params);
  auto& b = net.with_edca(net.add_node({10.0, 0.0}), params);
  std::vector<net::Packet> got;
  b.set_rx_callback([&](net::Packet p) { got.push_back(std::move(p)); });

  a.enqueue(data_to(net.env(), 1));
  net.run_for(100_ms);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(net.phy(1).tx_count(), 1u);  // exactly the ACK
  EXPECT_EQ(a.tx_drop_count(), 0u);

  // Now a unicast to an address nobody answers: retransmitted to the
  // short retry limit, then dropped and reported upward.
  int failures = 0;
  a.set_tx_fail_callback([&](const net::Packet&) { ++failures; });
  const std::uint64_t sent_before = a.tx_data_count();
  a.enqueue(data_to(net.env(), 9));
  net.run_for(2_s);

  EXPECT_EQ(failures, 1);
  EXPECT_EQ(a.tx_drop_count(), 1u);
  EXPECT_EQ(a.tx_data_count() - sent_before, 1u + params.short_retry_limit);
}

TEST_F(EdcaTest, InternalCollisionHigherCategoryWinsLowerBacksOff) {
  // Equalise AIFS and zero the CW of AC_VO and AC_BK so both categories
  // reach their grant in the same slot: the tie must go to AC_VO, and
  // AC_BK must take an internal collision (CW doubling + fresh draw),
  // not a transmission.
  EdcaParams params;
  params.ac[static_cast<std::size_t>(AccessCategory::kVoice)] = {2, 0, 7};
  params.ac[static_cast<std::size_t>(AccessCategory::kBackground)] = {2, 0, 7};
  auto& a = net.with_edca(net.add_node({0.0, 0.0}), params);
  auto& b = net.with_edca(net.add_node({10.0, 0.0}));
  std::vector<std::uint8_t> order;
  b.set_rx_callback([&](net::Packet p) { order.push_back(p.priority); });

  a.enqueue(bcast(net.env(), 1, 200, 0));  // AC_BK first into the queues
  a.enqueue(bcast(net.env(), 7, 200, 1));  // AC_VO second
  net.run_for(100_ms);

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 7u);  // the voice frame transmitted first
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(a.internal_collision_count(), 1u);
  EXPECT_EQ(a.ac_tx_count(AccessCategory::kVoice), 1u);
  EXPECT_EQ(a.ac_tx_count(AccessCategory::kBackground), 1u);
}

TEST_F(EdcaTest, SaturationThroughputOrdersByAccessCategory) {
  // Saturate all four categories on one station and let arbitration run:
  // the served-frame counts must order AC_VO >= AC_VI >= AC_BE >= AC_BK,
  // strictly at the extremes (the AIFS/CW gap compounds under load).
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  auto& b = net.with_edca(net.add_node({10.0, 0.0}));
  (void)b;

  for (std::uint64_t i = 0; i < 50; ++i) {
    a.enqueue(bcast(net.env(), 1, 500, i));  // AC_BK
    a.enqueue(bcast(net.env(), 0, 500, i));  // AC_BE
    a.enqueue(bcast(net.env(), 5, 500, i));  // AC_VI
    a.enqueue(bcast(net.env(), 7, 500, i));  // AC_VO
  }
  net.run_for(30_ms);

  const auto vo = a.ac_tx_count(AccessCategory::kVoice);
  const auto vi = a.ac_tx_count(AccessCategory::kVideo);
  const auto be = a.ac_tx_count(AccessCategory::kBestEffort);
  const auto bk = a.ac_tx_count(AccessCategory::kBackground);
  EXPECT_GE(vo, vi);
  EXPECT_GE(vi, be);
  EXPECT_GE(be, bk);
  EXPECT_GT(vo, bk);
  // The medium stayed contended: not every enqueued frame got out.
  EXPECT_LT(vo + vi + be + bk, 200u);
}

TEST_F(EdcaTest, LinkDownFlushesEveryAccessCategoryQueue) {
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  net.add_node({10.0, 0.0});

  for (std::uint64_t i = 0; i < 5; ++i) {
    a.enqueue(bcast(net.env(), 1, 200, i));
    a.enqueue(bcast(net.env(), 0, 200, i));
    a.enqueue(bcast(net.env(), 5, 200, i));
    a.enqueue(bcast(net.env(), 7, 200, i));
  }
  a.set_link_up(false);
  net.run_for(100_ms);

  EXPECT_EQ(net.phy(0).tx_count(), 0u);
  for (const AccessCategory c :
       {AccessCategory::kBackground, AccessCategory::kBestEffort, AccessCategory::kVideo,
        AccessCategory::kVoice}) {
    EXPECT_EQ(a.ac_queue_length(c), 0u) << to_string(c);
  }
}

TEST_F(EdcaTest, FlushNextHopTakesOneHopFromTheIfqAndTheRings) {
  // Six frames per category, alternating next hops 1 and 2. Each
  // category's first frame (hop 1) leaves its queue to contend, so the
  // flush finds two hop-1 frames in each of AC_BE (the ifq), AC_VI and
  // AC_VO, and must leave the three hop-2 frames in each.
  net.env().metrics().set_enabled(true);
  auto& a = net.with_edca(net.add_node({0.0, 0.0}));
  const AccessCategory cats[] = {AccessCategory::kBestEffort, AccessCategory::kVideo,
                                 AccessCategory::kVoice};
  const std::uint8_t priorities[] = {0, 5, 7};
  for (const std::uint8_t priority : priorities)
    for (int i = 0; i < 6; ++i)
      a.enqueue(data_to(net.env(), i % 2 == 0 ? 1 : 2, priority));

  const std::vector<net::Packet> flushed = a.flush_next_hop(1);

  ASSERT_EQ(flushed.size(), 6u);
  for (const net::Packet& p : flushed) EXPECT_EQ(p.mac->dst, 1u);
  for (const AccessCategory c : cats) EXPECT_EQ(a.ac_queue_length(c), 3u) << to_string(c);
  EXPECT_EQ(net.env().metrics().total(sim::Counter::kIfqRemoved), flushed.size());
}

TEST_F(EdcaTest, FullAccessCategoryRingDropsTheNextFrame) {
  // The first AC_VI frame leaves the ring to contend and the next two
  // fill it; the fourth is dropped at the door.
  net.env().metrics().set_enabled(true);
  EdcaParams params;
  params.ac_queue_capacity = 2;
  auto& a = net.with_edca(net.add_node({0.0, 0.0}), params);
  std::vector<std::uint64_t> uids;
  for (int i = 0; i < 4; ++i) {
    net::Packet p = bcast(net.env(), 5);
    uids.push_back(p.uid);
    a.enqueue(std::move(p));
  }

  EXPECT_EQ(a.ac_queue_length(AccessCategory::kVideo), 2u);
  EXPECT_EQ(net.env().metrics().total(sim::Counter::kIfqDropped), 1u);
  const std::vector<net::TraceRecord> drops = net.tracer().drops("IFQ");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].layer, net::TraceLayer::kIfq);
  EXPECT_EQ(drops[0].uid, uids[3]);
}

// Takes a station's link down while its unicast waits for an ACK that
// never comes, then brings it back and sends to a neighbour that answers.
template <class Mac, class Attach>
void check_link_down_while_awaiting_ack(Attach attach) {
  eblnet::testing::TestNet net;
  net.env().metrics().set_enabled(true);
  Mac& a = attach(net, net.add_node({0.0, 0.0}));
  Mac& b = attach(net, net.add_node({10.0, 0.0}));
  int failures = 0;
  a.set_tx_fail_callback([&](const net::Packet&) { ++failures; });
  int delivered = 0;
  b.set_rx_callback([&](net::Packet) { ++delivered; });

  a.enqueue(data_to(net.env(), 9));  // no station 9: the ACK never comes
  for (int step = 0; step < 10000 && (net.phy(0).tx_count() == 0 || net.phy(0).transmitting());
       ++step)
    net.run_for(10_us);
  ASSERT_EQ(net.phy(0).tx_count(), 1u);
  a.set_link_up(false);
  net.run_for(1_s);

  const sim::MetricsRegistry& m = net.env().metrics();
  EXPECT_EQ(m.total(sim::Counter::kMacAckTimeouts), 0u);
  EXPECT_EQ(m.total(sim::Counter::kMacRetryDrops), 0u);
  EXPECT_TRUE(net.tracer().drops("RET").empty());
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(net.phy(0).tx_count(), 1u);

  a.set_link_up(true);
  a.enqueue(data_to(net.env(), 1));
  net.run_for(100_ms);

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.phy(0).tx_count(), 2u);  // sent once, not retried
  EXPECT_EQ(net.phy(1).tx_count(), 1u);  // the ACK
  EXPECT_EQ(m.total(sim::Counter::kMacAckTimeouts), 0u);
  EXPECT_EQ(failures, 0);
}

TEST(CsmaLinkDownTest, AwaitedAckIsForgottenAndTheRebootedMacDeliversOverBothMacs) {
  {
    SCOPED_TRACE("Mac80211");
    check_link_down_while_awaiting_ack<Mac80211>(
        [](eblnet::testing::TestNet& net, net::Node& node) -> Mac80211& {
          return net.with_80211(node);
        });
  }
  {
    SCOPED_TRACE("Edca");
    check_link_down_while_awaiting_ack<Edca>(
        [](eblnet::testing::TestNet& net, net::Node& node) -> Edca& {
          return net.with_edca(node);
        });
  }
}

TEST_F(EdcaTest, RejectsNonPositiveSlotTimeAndRates) {
  using Mutator = void (*)(EdcaParams&);
  const std::pair<const char*, Mutator> bad[] = {
      {"slot_time", [](EdcaParams& p) { p.slot_time = Time::zero(); }},
      {"data_rate_bps", [](EdcaParams& p) { p.data_rate_bps = 0.0; }},
      {"basic_rate_bps", [](EdcaParams& p) { p.basic_rate_bps = 0.0; }},
  };
  for (const auto& [field, mutate] : bad) {
    EdcaParams params;
    mutate(params);
    try {
      net.with_edca(net.add_node({0.0, 0.0}), params);
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
    }
  }
}

TEST_F(EdcaTest, EdcaParamsDoNotPerturbNonEdcaScenarioKeys) {
  // The canonical scenario text only emits the chosen MAC's parameters:
  // mutating the EDCA table under an 802.11 (DCF) config must leave the
  // key — and therefore every existing cache entry — untouched.
  const core::ScenarioConfig dcf = core::ScenarioBuilder::trial3().build();
  core::ScenarioConfig mutated = dcf;
  mutated.edca.ac[3] = {1, 0, 3};
  mutated.edca.data_rate_bps = 27e6;
  EXPECT_EQ(core::campaign::canonical_scenario_text(dcf),
            core::campaign::canonical_scenario_text(mutated));

  core::ScenarioConfig edca = dcf;
  edca.mac = core::MacType::kEdca;
  EXPECT_NE(core::campaign::canonical_scenario_text(dcf),
            core::campaign::canonical_scenario_text(edca));
}

}  // namespace
}  // namespace eblnet::mac
