#include <gtest/gtest.h>

#include "routing/dsdv.hpp"
#include "test_net.hpp"
#include "transport/udp.hpp"
#include "waypoint_mobility.hpp"

namespace eblnet::routing {
namespace {

using sim::Time;
using namespace sim::time_literals;

class DsdvFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{13};
  std::vector<Dsdv*> agents;

  Dsdv& with_dsdv(net::Node& node, DsdvParams params = {}) {
    auto agent = std::make_unique<Dsdv>(net.env(), node.id(), params);
    auto* raw = agent.get();
    node.set_routing(std::move(agent));
    agents.push_back(raw);
    return *raw;
  }

  /// Fast-converging parameters so tests stay quick.
  static DsdvParams fast() {
    DsdvParams p;
    p.periodic_update_interval = 1_s;
    p.route_lifetime = 4_s;
    return p;
  }

  void build_chain(std::size_t n, double spacing, DsdvParams params) {
    for (std::size_t i = 0; i < n; ++i) {
      net::Node& node = net.add_node({spacing * static_cast<double>(i), 0.0});
      net.with_80211(node);
      with_dsdv(node, params);
    }
  }
};

TEST_F(DsdvFixture, RejectsNonPositivePeriodicUpdateInterval) {
  DsdvParams params = fast();
  params.periodic_update_interval = Time::zero();
  try {
    with_dsdv(net.add_node({0.0, 0.0}), params);
    ADD_FAILURE() << "periodic_update_interval = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("periodic_update_interval"), std::string::npos)
        << e.what();
  }
}

TEST_F(DsdvFixture, ConvergesToFullConnectivity) {
  build_chain(4, 200.0, fast());  // 3-hop chain
  net.run_for(5_s);  // several update periods
  for (std::size_t i = 0; i < 4; ++i) {
    for (net::NodeId dst = 0; dst < 4; ++dst) {
      if (dst == agents[i]->self()) continue;
      EXPECT_TRUE(agents[i]->has_route(dst)) << "node " << i << " -> " << dst;
    }
  }
}

TEST_F(DsdvFixture, MetricsAreShortestHopCounts) {
  build_chain(4, 200.0, fast());
  net.run_for(6_s);
  ASSERT_TRUE(agents[0]->has_route(3));
  EXPECT_EQ(agents[0]->route(3)->metric, 3);
  EXPECT_EQ(agents[0]->route(3)->next_hop, 1u);
  EXPECT_EQ(agents[0]->route(1)->metric, 1);
  EXPECT_EQ(agents[1]->route(3)->metric, 2);
}

TEST_F(DsdvFixture, FirstPacketNeedsNoDiscovery) {
  build_chain(2, 100.0, fast());
  net.run_for(3_s);  // routes converge proactively
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);

  const Time sent_at = net.env().now();
  Time got_at{};
  rx.set_recv_callback([&](const net::Packet&) { got_at = net.env().now(); });
  tx.send(512);
  net.run_for(1_s);
  ASSERT_EQ(rx.packets_received(), 1u);
  // No RREQ round trip: the packet crosses in a couple of milliseconds.
  EXPECT_LT((got_at - sent_at).to_seconds(), 0.01);
}

TEST_F(DsdvFixture, DataForwardsAcrossTheChain) {
  build_chain(3, 200.0, fast());
  net.run_for(4_s);
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(2), 200};
  tx.connect(2, 200);
  for (int i = 0; i < 5; ++i) tx.send(512);
  net.run_for(1_s);
  EXPECT_EQ(rx.packets_received(), 5u);
  EXPECT_GE(agents[1]->stats().data_forwarded, 5u);
}

TEST_F(DsdvFixture, NoRouteBeforeConvergenceIsDropped) {
  build_chain(2, 100.0, fast());
  // Send immediately: DSDV has no send-buffer, the packet is dropped.
  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.send(512);
  net.run_for(30_ms);
  EXPECT_EQ(rx.packets_received(), 0u);
  EXPECT_EQ(agents[0]->stats().data_no_route_dropped, 1u);
  EXPECT_GE(net.tracer().drops("NRTE").size(), 1u);
}

TEST_F(DsdvFixture, BrokenLinkIsAdvertisedWithOddSeqno) {
  // 0 -- 1(mobile): when 1 drives off, 0 marks the route broken and the
  // entry carries an odd sequence number.
  net::Node& a = net.add_node({0.0, 0.0});
  net.with_80211(a);
  with_dsdv(a, fast());
  auto mob = std::make_shared<eblnet::testing::WaypointMobility>(mobility::Vec2{100.0, 0.0});
  net::Node& b = net.add_mobile_node(mob);
  net.with_80211(b);
  with_dsdv(b, fast());

  transport::UdpAgent tx{net.node(0), 100};
  transport::UdpAgent rx{net.node(1), 200};
  tx.connect(1, 200);
  net.run_for(3_s);
  ASSERT_TRUE(agents[0]->has_route(1));

  mob->set_destination_at(net.env().now(), {5000.0, 0.0}, 100.0);
  // Keep sending so the failing unicasts trip the MAC's retry limit.
  for (int i = 0; i < 10; ++i) {
    net.run_for(1_s);
    tx.send(256);
  }
  net.run_for(2_s);
  EXPECT_FALSE(agents[0]->has_route(1));
  EXPECT_GE(agents[0]->stats().routes_broken, 1u);
  const Dsdv::Entry* e = agents[0]->route(1);
  EXPECT_EQ(e, nullptr);  // broken == unusable
}

TEST_F(DsdvFixture, StaleRoutesExpireWithoutUpdates) {
  build_chain(2, 100.0, fast());
  net.run_for(3_s);
  ASSERT_TRUE(agents[0]->has_route(1));
  // Silence node 1 by detuning its radio: no more updates arrive.
  net.phy(1).set_channel_id(9);
  net.run_for(10_s);  // > route_lifetime
  EXPECT_FALSE(agents[0]->has_route(1));
}

TEST_F(DsdvFixture, TriggeredUpdatePropagatesBreakQuickly) {
  // Chain 0-1-2; node 2 leaves. Node 1 detects the break and the
  // triggered update reaches node 0 well before the next periodic dump.
  DsdvParams slow = fast();
  slow.periodic_update_interval = 10_s;
  slow.route_lifetime = 60_s;
  build_chain(3, 200.0, slow);
  // Let it converge with a couple of dumps.
  net.run_for(21_s);
  ASSERT_TRUE(agents[0]->has_route(2));

  // Physically remove node 2 and poke the 1->2 link with data.
  net.phy(2).set_channel_id(9);
  transport::UdpAgent tx{net.node(0), 100};
  tx.connect(2, 200);
  tx.send(256);
  net.run_for(3_s);

  EXPECT_FALSE(agents[1]->has_route(2));
  EXPECT_FALSE(agents[0]->has_route(2));
  EXPECT_GE(agents[1]->stats().triggered_updates_sent, 1u);
}

TEST_F(DsdvFixture, ControlOverheadIsPeriodic) {
  build_chain(2, 100.0, fast());
  net.run_for(Time::seconds(10.5));
  // ~10 periodic updates per node at a 1 s interval (plus jitter).
  EXPECT_GE(agents[0]->stats().periodic_updates_sent, 9u);
  EXPECT_LE(agents[0]->stats().periodic_updates_sent, 12u);
  EXPECT_GE(agents[0]->stats().updates_received, 9u);
}

// Property sweep: convergence holds across chain lengths and spacings.
class DsdvConvergence
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(DsdvConvergence, AllPairsRoutable) {
  const auto [n, spacing] = GetParam();
  eblnet::testing::TestNet net{17};
  DsdvParams params;
  params.periodic_update_interval = 1_s;
  std::vector<Dsdv*> agents;
  for (std::size_t i = 0; i < n; ++i) {
    net::Node& node = net.add_node({spacing * static_cast<double>(i), 0.0});
    net.with_80211(node);
    auto agent = std::make_unique<Dsdv>(net.env(), node.id(), params);
    agents.push_back(agent.get());
    node.set_routing(std::move(agent));
  }
  net.run_for(Time::seconds(std::int64_t{2 + 2 * static_cast<std::int64_t>(n)}));
  for (std::size_t i = 0; i < n; ++i) {
    for (net::NodeId d = 0; d < n; ++d) {
      if (d == agents[i]->self()) continue;
      ASSERT_TRUE(agents[i]->has_route(d)) << "n=" << n << " i=" << i << " d=" << d;
      // Metric equals the line-topology hop count.
      const auto expect_hops = static_cast<std::uint16_t>(
          d > agents[i]->self() ? d - agents[i]->self() : agents[i]->self() - d);
      const double hop_span = spacing;
      if (hop_span <= 250.0) {
        EXPECT_EQ(agents[i]->route(d)->metric,
                  spacing > 125.0 ? expect_hops : 1);  // dense nets go direct
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chains, DsdvConvergence,
                         ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                                              std::size_t{5}),
                                            ::testing::Values(50.0, 200.0)));

}  // namespace
}  // namespace eblnet::routing
