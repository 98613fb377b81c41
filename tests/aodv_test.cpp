#include <gtest/gtest.h>

#include "routing/aodv.hpp"
#include "routing/routing_table.hpp"
#include "test_net.hpp"
#include "transport/udp.hpp"
#include "waypoint_mobility.hpp"

namespace eblnet::routing {
namespace {

using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// Sequence numbers and routing table (pure units)
// ---------------------------------------------------------------------------

TEST(SeqnoTest, CircularComparison) {
  EXPECT_TRUE(seqno_newer(2, 1));
  EXPECT_FALSE(seqno_newer(1, 2));
  EXPECT_FALSE(seqno_newer(5, 5));
  // Wraparound: a freshly wrapped number beats one from just before the wrap.
  EXPECT_TRUE(seqno_newer(1, 0xffff'fff0));
  EXPECT_FALSE(seqno_newer(0xffff'fff0, 1));
}

TEST(RoutingTableTest, GetOrCreateAndFind) {
  RoutingTable t;
  EXPECT_EQ(t.find(5), nullptr);
  RouteEntry& e = t.get_or_create(5);
  EXPECT_EQ(e.dst, 5u);
  EXPECT_FALSE(e.valid);
  EXPECT_EQ(t.find(5), &e);
  EXPECT_EQ(t.size(), 1u);
  t.get_or_create(5);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RoutingTableTest, LookupValidChecksExpiry) {
  RoutingTable t;
  RouteEntry& e = t.get_or_create(1);
  e.valid = true;
  e.expires = 10_s;
  EXPECT_NE(t.lookup_valid(1, 5_s), nullptr);
  EXPECT_EQ(t.lookup_valid(1, 10_s), nullptr);  // expiry invalidates
  EXPECT_FALSE(e.valid);
}

TEST(RoutingTableTest, PurgeInvalidatesExpired) {
  RoutingTable t;
  for (net::NodeId i = 0; i < 5; ++i) {
    RouteEntry& e = t.get_or_create(i);
    e.valid = true;
    e.expires = Time::seconds(static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(t.purge(3_s), 3u);
  EXPECT_EQ(t.lookup_valid(4, 3_s) != nullptr, true);
}

TEST(RoutingTableTest, RoutesViaFindsNextHopUsers) {
  RoutingTable t;
  for (net::NodeId i = 0; i < 4; ++i) {
    RouteEntry& e = t.get_or_create(i);
    e.valid = true;
    e.expires = 100_s;
    e.next_hop = i % 2;
  }
  EXPECT_EQ(t.routes_via(0).size(), 2u);
  EXPECT_EQ(t.routes_via(1).size(), 2u);
  EXPECT_EQ(t.routes_via(9).size(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol behaviour over a real stack (802.11 at close range = reliable)
// ---------------------------------------------------------------------------

class AodvFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{7};

  Aodv& aodv(std::size_t i) { return *aodvs_.at(i); }

  void build_chain(std::size_t n, double spacing, AodvParams params = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      net::Node& node = net.add_node({spacing * static_cast<double>(i), 0.0});
      net.with_80211(node);
      aodvs_.push_back(&net.with_aodv(node, params));
    }
  }

  std::vector<Aodv*> aodvs_;
};

TEST_F(AodvFixture, OneHopDiscoveryDeliversAndInstallsRoute) {
  build_chain(2, 100.0);
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.send(512);
  net.run_for(1_s);

  EXPECT_EQ(rx.packets_received(), 1u);
  ASSERT_TRUE(aodv(0).has_valid_route(1));
  EXPECT_EQ(aodv(0).route(1)->hop_count, 1);
  EXPECT_EQ(aodv(0).route(1)->next_hop, 1u);
  EXPECT_EQ(aodv(0).stats().discoveries_started, 1u);
  EXPECT_GE(aodv(1).stats().rrep_sent, 1u);
}

TEST_F(AodvFixture, MultiHopChainRoutesThroughIntermediate) {
  build_chain(3, 200.0);  // 0-2 are 400 m apart: beyond the 250 m range
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(2), 200};
  tx.connect(2, 200);
  for (int i = 0; i < 5; ++i) tx.send(512);
  net.run_for(2_s);

  EXPECT_EQ(rx.packets_received(), 5u);
  ASSERT_TRUE(aodv(0).has_valid_route(2));
  EXPECT_EQ(aodv(0).route(2)->next_hop, 1u);
  EXPECT_EQ(aodv(0).route(2)->hop_count, 2);
  EXPECT_GE(aodv(1).stats().data_forwarded, 5u);
}

TEST_F(AodvFixture, LongChainDiscoveryWithExpandingRing) {
  AodvParams params;
  params.ttl_start = 1;
  params.ttl_increment = 1;
  params.ttl_threshold = 4;
  build_chain(5, 200.0, params);  // 4 hops end to end
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(4), 200};
  tx.connect(4, 200);
  tx.send(512);
  net.run_for(5_s);

  EXPECT_EQ(rx.packets_received(), 1u);
  ASSERT_TRUE(aodv(0).has_valid_route(4));
  EXPECT_EQ(aodv(0).route(4)->hop_count, 4);
  // The ring search needed several RREQ rounds before reaching TTL 4.
  EXPECT_GE(aodv(0).stats().rreq_sent, 2u);
}

TEST_F(AodvFixture, PacketsBufferedDuringDiscoveryAllArrive) {
  build_chain(2, 100.0);
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  // Burst before any route exists; everything must be buffered, then flushed.
  for (int i = 0; i < 10; ++i) tx.send(256);
  net.run_for(2_s);
  EXPECT_EQ(rx.packets_received(), 10u);
}

TEST_F(AodvFixture, UnreachableDestinationDropsAfterRetries) {
  AodvParams params;
  params.rreq_retries = 1;
  params.ttl_start = params.ttl_threshold;  // skip the ring, go straight out
  build_chain(1, 100.0, params);
  transport::UdpAgent tx{net.node(0), 100};
  tx.connect(99, 200);  // nobody home
  tx.send(512);
  net.run_for(30_s);

  EXPECT_EQ(aodv(0).stats().discoveries_failed, 1u);
  EXPECT_FALSE(aodv(0).has_valid_route(99));
  EXPECT_GE(net.tracer().drops("NRTE").size(), 1u);
}

TEST_F(AodvFixture, DuplicateRreqsAreSuppressed) {
  build_chain(3, 100.0);  // everyone hears everyone
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(2), 200};
  tx.connect(2, 200);
  tx.send(512);
  net.run_for(2_s);

  // Node 1 heard the RREQ from node 0 and possibly rebroadcast once, but
  // must not have forwarded the same flood repeatedly.
  EXPECT_LE(aodv(1).stats().rreq_forwarded, 1u);
}

TEST_F(AodvFixture, RouteExpiresWithoutTraffic) {
  AodvParams params;
  params.active_route_timeout = 2_s;
  params.my_route_timeout = 2_s;
  build_chain(2, 100.0, params);
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.send(512);
  net.run_for(1_s);
  EXPECT_TRUE(aodv(0).has_valid_route(1));
  net.run_for(5_s);  // idle
  EXPECT_FALSE(aodv(0).has_valid_route(1));
}

TEST_F(AodvFixture, QuietNodeKeepsThePurgeGridForANewRoute) {
  // The purge runs every 500 ms from t = 0, and a node holding nothing
  // mutes it. A neighbour route installed at 2.2 s expires at 3.25 s,
  // between two ticks: the 3.5 s tick must invalidate it, as it would if
  // every tick had run.
  AodvParams params;
  params.active_route_timeout = 1050_ms;
  build_chain(2, 100.0, params);
  net.run_until(2200_ms);
  ASSERT_TRUE(aodv(0).purge_muted());

  // Data from node 1 installs the route through update_neighbor_route
  // alone: no RREQ-cache entry, no buffered packet.
  net::Packet p;
  p.uid = net.env().alloc_uid();
  p.type = net::PacketType::kUdpData;
  p.ip.emplace();
  p.ip->src = 1;
  p.ip->dst = 0;
  p.prev_hop = 1;
  aodv(0).route_input(std::move(p));
  EXPECT_FALSE(aodv(0).purge_muted());
  ASSERT_NE(aodv(0).table().find(1), nullptr);
  EXPECT_EQ(aodv(0).table().find(1)->expires, 3250_ms);

  // table().find() does not expire entries; only the purge does.
  net.run_until(3500_ms - 1_ns);
  EXPECT_TRUE(aodv(0).table().find(1)->valid);
  net.run_until(3500_ms);
  EXPECT_FALSE(aodv(0).table().find(1)->valid);
  EXPECT_TRUE(aodv(0).purge_muted());  // nothing valid is left
}

TEST_F(AodvFixture, LinkFailureTriggersRerrAndReroute) {
  // 0 -> 1 with node 1 mobile: after it drives away, the MAC reports the
  // broken link, node 0 invalidates the route and rediscovers (failing,
  // since 1 is gone for good).
  net::Node& a = net.add_node({0.0, 0.0});
  net.with_80211(a);
  aodvs_.push_back(&net.with_aodv(a));

  auto mob = std::make_shared<eblnet::testing::WaypointMobility>(mobility::Vec2{100.0, 0.0});
  net::Node& b = net.add_mobile_node(mob);
  net.with_80211(b);
  aodvs_.push_back(&net.with_aodv(b));

  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.send(512);
  net.run_for(1_s);
  EXPECT_EQ(rx.packets_received(), 1u);

  // Node 1 drives 2 km away while node 0 keeps sending every second, so
  // the route stays fresh until the link physically breaks and the MAC's
  // retry limit reports the failure.
  mob->set_destination_at(net.env().now(), {2000.0, 0.0}, 40.0);
  for (int i = 0; i < 15; ++i) {
    net.run_for(1_s);
    tx.send(512);
  }
  net.run_for(30_s);

  EXPECT_GE(aodv(0).stats().link_failures, 1u);
  EXPECT_FALSE(aodv(0).has_valid_route(1));
  // Only the packets sent while still in range made it.
  EXPECT_LT(rx.packets_received(), 8u);
}

TEST_F(AodvFixture, ReroutesAroundFailedIntermediate) {
  // Diamond: 0 at origin; relays 1 (north) and 2 (south); destination 3.
  // 0<->3 is out of range. After relay 1 leaves, traffic must re-route
  // through relay 2.
  auto add = [&](mobility::Vec2 pos) -> net::Node& {
    net::Node& n = net.add_node(pos);
    net.with_80211(n);
    aodvs_.push_back(&net.with_aodv(n));
    return n;
  };
  add({0.0, 0.0});
  auto mob = std::make_shared<eblnet::testing::WaypointMobility>(mobility::Vec2{200.0, 100.0});
  net::Node& relay1 = net.add_mobile_node(mob);
  net.with_80211(relay1);
  aodvs_.push_back(&net.with_aodv(relay1));
  add({200.0, -100.0});
  add({400.0, 0.0});

  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(3), 200};
  tx.connect(3, 200);
  tx.send(512);
  net.run_for(2_s);
  EXPECT_EQ(rx.packets_received(), 1u);

  // Whichever relay was chosen, kill relay 1 and keep the traffic coming.
  mob->set_destination_at(net.env().now(), {200.0, 5000.0}, 100.0);
  net.run_until(60_s);
  for (int i = 0; i < 5; ++i) {
    tx.send(512);
    net.run_for(2_s);
  }
  net.run_for(10_s);

  EXPECT_GE(rx.packets_received(), 5u);  // delivery resumed via relay 2
  if (aodv(0).has_valid_route(3)) {
    EXPECT_EQ(aodv(0).route(3)->next_hop, 2u);
  }
}

// ---------------------------------------------------------------------------
// HELLO mode (TDMA: no link-layer failure detection)
// ---------------------------------------------------------------------------

class AodvHelloFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{11};

  void build_tdma_pair(AodvParams params = {}) {
    mac::TdmaParams t;
    t.num_slots = 4;
    for (unsigned i = 0; i < 2; ++i) {
      net::Node& n = net.add_node({100.0 * i, 0.0});
      net.with_tdma(n, t, i);
      aodvs_.push_back(&net.with_aodv(n, params));
    }
  }
  std::vector<routing::Aodv*> aodvs_;
};

TEST_F(AodvHelloFixture, HelloRunsOnlyWithoutLinkLayerDetection) {
  build_tdma_pair();
  EXPECT_TRUE(aodvs_[0]->hello_active());
  net.run_for(5_s);
  EXPECT_GE(aodvs_[0]->stats().hello_sent, 4u);

  // On 802.11 the MAC detects failures, so HELLO stays off.
  eblnet::testing::TestNet net2;
  net::Node& n = net2.add_node({0.0, 0.0});
  net2.with_80211(n);
  auto& agent = net2.with_aodv(n);
  EXPECT_FALSE(agent.hello_active());
  net2.run_for(5_s);
  EXPECT_EQ(agent.stats().hello_sent, 0u);
}

TEST_F(AodvHelloFixture, HelloDoesNotInstallRoutesByDefault) {
  build_tdma_pair();
  net.run_for(5_s);
  EXPECT_FALSE(aodvs_[0]->has_valid_route(1));
  EXPECT_FALSE(aodvs_[1]->has_valid_route(0));
}

TEST_F(AodvHelloFixture, HelloCanInstallRoutesWhenConfigured) {
  AodvParams params;
  params.hello_installs_routes = true;
  build_tdma_pair(params);
  net.run_for(5_s);
  EXPECT_TRUE(aodvs_[0]->has_valid_route(1));
  EXPECT_EQ(aodvs_[0]->route(1)->hop_count, 1);
}

TEST_F(AodvHelloFixture, DiscoveryAndDataWorkOverTdma) {
  build_tdma_pair();
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  for (int i = 0; i < 5; ++i) tx.send(512);
  net.run_for(5_s);
  EXPECT_EQ(rx.packets_received(), 5u);
  EXPECT_TRUE(aodvs_[0]->has_valid_route(1));
}

// ---------------------------------------------------------------------------
// Loop-freedom property on random static topologies
// ---------------------------------------------------------------------------

class AodvLoopFreedom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AodvLoopFreedom, RoutesNeverFormForwardingLoops) {
  eblnet::testing::TestNet net{GetParam()};
  sim::Rng placer{GetParam() * 977 + 1};
  constexpr std::size_t kNodes = 8;
  std::vector<routing::Aodv*> agents;
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::Node& n = net.add_node(
        {placer.uniform(0.0, 700.0), placer.uniform(0.0, 700.0)});
    net.with_80211(n);
    agents.push_back(&net.with_aodv(n));
  }
  // Random flows between random pairs.
  std::vector<std::unique_ptr<transport::UdpAgent>> udps;
  for (int f = 0; f < 6; ++f) {
    const auto s = static_cast<net::NodeId>(placer.uniform_int(std::uint64_t{kNodes}));
    auto d = static_cast<net::NodeId>(placer.uniform_int(std::uint64_t{kNodes}));
    if (d == s) d = (d + 1) % kNodes;
    auto tx = std::make_unique<transport::UdpAgent>(net.node(s),
                                                    static_cast<net::Port>(1000 + f));
    auto rx = std::make_unique<transport::UdpAgent>(net.node(d),
                                                    static_cast<net::Port>(2000 + f));
    tx->connect(d, static_cast<net::Port>(2000 + f));
    for (int k = 0; k < 3; ++k) tx->send(256);
    udps.push_back(std::move(tx));
    udps.push_back(std::move(rx));
  }
  net.run_for(10_s);

  // Property: following valid next_hops for any destination never loops.
  for (net::NodeId dst = 0; dst < kNodes; ++dst) {
    for (std::size_t start = 0; start < kNodes; ++start) {
      net::NodeId at = static_cast<net::NodeId>(start);
      std::size_t hops = 0;
      while (at != dst && hops <= kNodes + 1) {
        routing::Aodv* agent = agents[at];
        const routing::RouteEntry* e = agent->route(dst);
        if (e == nullptr || !e->valid) break;
        at = e->next_hop;
        ++hops;
      }
      EXPECT_LE(hops, kNodes + 1) << "loop for dst " << dst << " from " << start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, AodvLoopFreedom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace eblnet::routing
