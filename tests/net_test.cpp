#include <gtest/gtest.h>

#include "net/env.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "trace/trace_manager.hpp"

namespace eblnet::net {
namespace {

// ---------------------------------------------------------------------------
// Packet / headers
// ---------------------------------------------------------------------------

TEST(PacketTest, SizeAccountsAttachedHeaders) {
  Packet p;
  p.payload_bytes = 1000;
  EXPECT_EQ(p.size_bytes(), 1000u);
  p.ip.emplace();
  EXPECT_EQ(p.size_bytes(), 1020u);
  p.tcp.emplace();
  EXPECT_EQ(p.size_bytes(), 1040u);
}

TEST(PacketTest, UdpHeaderSize) {
  Packet p;
  p.payload_bytes = 500;
  p.ip.emplace();
  p.udp.emplace();
  EXPECT_EQ(p.size_bytes(), 500u + 20u + 8u);
}

TEST(PacketTest, AodvHeaderSizes) {
  Packet p;
  p.ip.emplace();
  p.aodv = AodvRreqHeader{};
  EXPECT_EQ(p.size_bytes(), 20u + 24u);
  p.aodv = AodvRrepHeader{};
  EXPECT_EQ(p.size_bytes(), 20u + 20u);
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({1, 2});
  rerr.unreachable.push_back({3, 4});
  p.aodv = rerr;
  EXPECT_EQ(p.size_bytes(), 20u + 12u + 16u);
  p.aodv = AodvHelloHeader{};
  EXPECT_EQ(p.size_bytes(), 20u + 20u);
}

TEST(PacketTest, CopiesAreIndependent) {
  Packet a;
  a.uid = 1;
  a.ip.emplace();
  a.ip->dst = 7;
  Packet b = a;
  b.ip->dst = 9;
  EXPECT_EQ(a.ip->dst, 7u);
  EXPECT_EQ(b.ip->dst, 9u);
}

TEST(PacketTest, TypeClassification) {
  EXPECT_TRUE(is_routing_control(PacketType::kAodvRreq));
  EXPECT_TRUE(is_routing_control(PacketType::kAodvRerr));
  EXPECT_FALSE(is_routing_control(PacketType::kTcpData));
  EXPECT_TRUE(is_mac_control(PacketType::kMacAck));
  EXPECT_FALSE(is_mac_control(PacketType::kUdpData));
}

TEST(PacketTest, TypeNamesAreStable) {
  // The trace format depends on these strings.
  EXPECT_STREQ(to_string(PacketType::kTcpData), "tcp");
  EXPECT_STREQ(to_string(PacketType::kUdpData), "cbr");
  EXPECT_STREQ(to_string(PacketType::kAodvRreq), "AODV_RREQ");
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(EnvTest, UidsAreUniqueAndPerSimulation) {
  Env a{1}, b{1};
  EXPECT_EQ(a.alloc_uid(), 1u);
  EXPECT_EQ(a.alloc_uid(), 2u);
  EXPECT_EQ(b.alloc_uid(), 1u);  // independent counter per Env
}

TEST(EnvTest, TraceGoesToSink) {
  Env env{1};
  trace::TraceManager sink;
  env.set_trace_sink(&sink);
  Packet p;
  p.uid = 5;
  p.ip.emplace();
  p.ip->src = 1;
  p.ip->dst = 2;
  env.trace(TraceAction::kSend, TraceLayer::kAgent, 1, p);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.records()[0].uid, 5u);
  EXPECT_EQ(sink.records()[0].ip_dst, 2u);
  EXPECT_EQ(sink.records()[0].node, 1u);
}

TEST(EnvTest, TraceWithoutSinkIsNoOp) {
  Env env{1};
  Packet p;
  env.trace(TraceAction::kSend, TraceLayer::kAgent, 0, p);  // must not crash
}

TEST(EnvTest, SeedControlsRngStream) {
  Env a{5}, b{5}, c{6};
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  Env a2{5};
  EXPECT_NE(a2.rng().next_u64(), c.rng().next_u64());
}

// ---------------------------------------------------------------------------
// Node port demux
// ---------------------------------------------------------------------------

class RecordingHandler final : public PortHandler {
 public:
  void recv(Packet&& p) override { received.push_back(std::move(p)); }
  std::vector<Packet> received;
};

class StubRouting final : public RoutingAgent {
 public:
  void route_output(Packet p) override { sent.push_back(std::move(p)); }
  void route_input(Packet&& p) override {
    if (deliver) deliver(std::move(p));
  }
  void set_deliver_callback(DeliverCallback cb) override { deliver = std::move(cb); }
  void attach_mac(MacLayer*) override {}
  std::vector<Packet> sent;
  DeliverCallback deliver;
};

TEST(NodeTest, DeliversToBoundPortByUdpHeader) {
  Env env{1};
  Node node{env, 3};
  auto routing = std::make_unique<StubRouting>();
  auto* routing_ptr = routing.get();
  node.set_routing(std::move(routing));
  RecordingHandler handler;
  node.bind_port(500, &handler);

  Packet p;
  p.ip.emplace();
  p.ip->dst = 3;
  p.udp.emplace();
  p.udp->dport = 500;
  routing_ptr->deliver(std::move(p));
  ASSERT_EQ(handler.received.size(), 1u);
}

TEST(NodeTest, DeliversToBoundPortByTcpHeader) {
  Env env{1};
  Node node{env, 3};
  auto routing = std::make_unique<StubRouting>();
  auto* routing_ptr = routing.get();
  node.set_routing(std::move(routing));
  RecordingHandler handler;
  node.bind_port(80, &handler);

  Packet p;
  p.ip.emplace();
  p.tcp.emplace();
  p.tcp->dport = 80;
  routing_ptr->deliver(std::move(p));
  ASSERT_EQ(handler.received.size(), 1u);
}

TEST(NodeTest, UnboundPortIsTracedDrop) {
  Env env{1};
  trace::TraceManager sink;
  env.set_trace_sink(&sink);
  Node node{env, 3};
  auto routing = std::make_unique<StubRouting>();
  auto* routing_ptr = routing.get();
  node.set_routing(std::move(routing));

  Packet p;
  p.ip.emplace();
  p.udp.emplace();
  p.udp->dport = 999;
  routing_ptr->deliver(std::move(p));
  ASSERT_EQ(sink.drops("NOPORT").size(), 1u);
}

TEST(NodeTest, DoubleBindThrows) {
  Env env{1};
  Node node{env, 0};
  RecordingHandler a, b;
  node.bind_port(10, &a);
  EXPECT_THROW(node.bind_port(10, &b), std::logic_error);
  node.unbind_port(10);
  node.bind_port(10, &b);  // rebind after unbind is fine
}

TEST(NodeTest, SendRequiresIpHeaderAndRouting) {
  Env env{1};
  Node node{env, 0};
  Packet no_ip;
  EXPECT_THROW(node.send(std::move(no_ip)), std::logic_error);
  Packet p;
  p.ip.emplace();
  EXPECT_THROW(node.send(std::move(p)), std::logic_error);  // no routing agent
}

TEST(NodeTest, SendRoutesThroughAgent) {
  Env env{1};
  Node node{env, 0};
  auto routing = std::make_unique<StubRouting>();
  auto* routing_ptr = routing.get();
  node.set_routing(std::move(routing));
  Packet p;
  p.ip.emplace();
  p.ip->dst = 9;
  node.send(std::move(p));
  ASSERT_EQ(routing_ptr->sent.size(), 1u);
  EXPECT_EQ(routing_ptr->sent[0].ip->dst, 9u);
}

TEST(NodeTest, PositionComesFromMobility) {
  Env env{1};
  Node node{env, 0};
  EXPECT_EQ(node.position(), mobility::Vec2{});
  node.set_mobility(std::make_shared<mobility::StaticMobility>(mobility::Vec2{3.0, 4.0}));
  EXPECT_EQ(node.position(), (mobility::Vec2{3.0, 4.0}));
}

}  // namespace
}  // namespace eblnet::net
