#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "trace/delay_analyzer.hpp"
#include "trace/throughput_monitor.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_manager.hpp"
#include "trace/trace_store.hpp"

namespace eblnet::trace {
namespace {

using sim::Time;
using namespace sim::time_literals;

// `reason` must be a string literal (or otherwise outlive the record):
// TraceRecord stores a non-owning view.
net::TraceRecord make_record(double t, net::TraceAction action, net::TraceLayer layer,
                             net::NodeId node, net::NodeId src, net::NodeId dst,
                             std::uint64_t seq, net::PacketType type = net::PacketType::kTcpData,
                             const char* reason = "") {
  net::TraceRecord r;
  r.t = Time::seconds(t);
  r.action = action;
  r.layer = layer;
  r.node = node;
  r.uid = seq + 1;
  r.type = type;
  r.size = 1040;
  r.ip_src = src;
  r.ip_dst = dst;
  r.app_seq = seq;
  r.reason = reason;
  return r;
}

// ---------------------------------------------------------------------------
// TraceManager
// ---------------------------------------------------------------------------

TEST(TraceManagerTest, CountsAndDrops) {
  TraceManager m;
  m.record(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  m.record(make_record(1.1, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  m.record(make_record(1.2, net::TraceAction::kDrop, net::TraceLayer::kIfq, 0, 0, 1, 1,
                       net::PacketType::kTcpData, "IFQ"));
  m.record(make_record(1.3, net::TraceAction::kDrop, net::TraceLayer::kRouter, 0, 0, 1, 2,
                       net::PacketType::kTcpData, "NRTE"));
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.count(net::TraceAction::kSend, net::TraceLayer::kAgent), 1u);
  EXPECT_EQ(m.drops().size(), 2u);
  EXPECT_EQ(m.drops("IFQ").size(), 1u);
  EXPECT_EQ(m.drops("XYZ").size(), 0u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
}

// ---------------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------------

// The arena copies records into raw chunk storage; memcpy-ability is the
// contract the whole trace hot path rests on.
static_assert(std::is_trivially_copyable_v<net::TraceRecord>,
              "TraceRecord must be trivially copyable");

TEST(TraceStoreTest, PushBackCrossesChunkBoundaries) {
  TraceStore store;
  const std::size_t n = TraceStore::kChunkRecords * 2 + 100;
  for (std::size_t i = 0; i < n; ++i) {
    net::TraceRecord r = make_record(0.001 * static_cast<double>(i), net::TraceAction::kSend,
                                     net::TraceLayer::kAgent, 0, 0, 1, i);
    store.push_back(r);
  }
  ASSERT_EQ(store.size(), n);
  // Spot-check both sides of each chunk boundary plus the extremes.
  EXPECT_EQ(store[0].app_seq, 0u);
  EXPECT_EQ(store[TraceStore::kChunkRecords - 1].app_seq, TraceStore::kChunkRecords - 1);
  EXPECT_EQ(store[TraceStore::kChunkRecords].app_seq, TraceStore::kChunkRecords);
  EXPECT_EQ(store[2 * TraceStore::kChunkRecords].app_seq, 2 * TraceStore::kChunkRecords);
  EXPECT_EQ(store[n - 1].app_seq, n - 1);

  // Forward iteration visits every record in order.
  std::size_t expect = 0;
  for (const net::TraceRecord& r : store) {
    ASSERT_EQ(r.app_seq, expect);
    ++expect;
  }
  EXPECT_EQ(expect, n);
}

TEST(TraceStoreTest, ClearKeepsStorageAndRefills) {
  TraceStore store;
  for (std::size_t i = 0; i < TraceStore::kChunkRecords + 5; ++i) {
    store.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, i));
  }
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.begin(), store.end());

  store.push_back(make_record(2.0, net::TraceAction::kDrop, net::TraceLayer::kIfq, 3, 0, 1, 42,
                              net::PacketType::kTcpData, "IFQ"));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store[0].app_seq, 42u);
  EXPECT_EQ(store[0].reason, "IFQ");
}

// ---------------------------------------------------------------------------
// trace_io round trip
// ---------------------------------------------------------------------------

TEST(TraceIoTest, RoundTripPreservesEverything) {
  std::vector<net::TraceRecord> in;
  in.push_back(make_record(2.013, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 2, 17));
  in.push_back(make_record(2.144, net::TraceAction::kDrop, net::TraceLayer::kIfq, 1, 0, 2, 25,
                           net::PacketType::kTcpData, "IFQ"));
  in.push_back(make_record(3.5, net::TraceAction::kForward, net::TraceLayer::kRouter, 1, 0, 2, 26,
                           net::PacketType::kAodvRrep));
  // Broadcast addresses must survive as "*".
  net::TraceRecord bc = make_record(4.0, net::TraceAction::kSend, net::TraceLayer::kRouter, 3,
                                    3, net::kBroadcastAddress, 0, net::PacketType::kAodvRreq);
  in.push_back(bc);

  std::stringstream ss;
  write_trace(ss, in);
  const auto out = parse_trace(ss);

  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t, in[i].t) << i;
    EXPECT_EQ(out[i].action, in[i].action) << i;
    EXPECT_EQ(out[i].layer, in[i].layer) << i;
    EXPECT_EQ(out[i].node, in[i].node) << i;
    EXPECT_EQ(out[i].uid, in[i].uid) << i;
    EXPECT_EQ(out[i].type, in[i].type) << i;
    EXPECT_EQ(out[i].size, in[i].size) << i;
    EXPECT_EQ(out[i].ip_src, in[i].ip_src) << i;
    EXPECT_EQ(out[i].ip_dst, in[i].ip_dst) << i;
    EXPECT_EQ(out[i].app_seq, in[i].app_seq) << i;
    EXPECT_EQ(out[i].reason, in[i].reason) << i;
  }
}

TEST(TraceIoTest, ParserSkipsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\n"
     << "s 1.000000000 _0_ AGT 1 tcp 1040 0 1 0 -\n";
  const auto out = parse_trace(ss);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node, 0u);
}

TEST(TraceIoTest, ParserRejectsGarbage) {
  std::stringstream bad1{"x 1.0 _0_ AGT 1 tcp 1040 0 1 0 -\n"};
  EXPECT_THROW(parse_trace(bad1), std::runtime_error);
  std::stringstream bad2{"s 1.0 _0_ WAT 1 tcp 1040 0 1 0 -\n"};
  EXPECT_THROW(parse_trace(bad2), std::runtime_error);
  std::stringstream bad3{"s 1.0 0 AGT 1 tcp 1040 0 1 0 -\n"};
  EXPECT_THROW(parse_trace(bad3), std::runtime_error);
  std::stringstream bad4{"s 1.0 _0_ AGT 1 tcp\n"};
  EXPECT_THROW(parse_trace(bad4), std::runtime_error);
}

TEST(TraceIoTest, FormatRecordMatchesWriteTrace) {
  const auto r = make_record(2.5, net::TraceAction::kForward, net::TraceLayer::kRouter, 3, 3, 4,
                             9, net::PacketType::kAodvRrep);
  std::stringstream ss;
  write_trace(ss, {r});
  EXPECT_EQ(ss.str(), format_record(r) + "\n");
}

// ---------------------------------------------------------------------------
// DelayAnalyzer
// ---------------------------------------------------------------------------

TEST(DelayAnalyzerTest, MatchesFirstSendToFirstReceive) {
  std::vector<net::TraceRecord> recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(1.5, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  recs.push_back(make_record(2.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 1));
  recs.push_back(make_record(2.2, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 1));

  const DelayAnalyzer a{recs};
  const auto flow = a.flow(0, 1);
  ASSERT_EQ(flow.size(), 2u);
  EXPECT_DOUBLE_EQ(flow[0].delay_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(flow[1].delay_seconds(), 0.2);
  EXPECT_EQ(a.unmatched_sends(), 0u);
}

TEST(DelayAnalyzerTest, DuplicateEventsDoNotSkewDelay) {
  std::vector<net::TraceRecord> recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  // A later duplicate send (retransmission trace) must be ignored.
  recs.push_back(make_record(3.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(3.5, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  // And a duplicate receive after that.
  recs.push_back(make_record(4.0, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));

  const DelayAnalyzer a{recs};
  const auto flow = a.flow(0, 1);
  ASSERT_EQ(flow.size(), 1u);
  EXPECT_DOUBLE_EQ(flow[0].delay_seconds(), 2.5);
}

TEST(DelayAnalyzerTest, UnmatchedSendsAreCounted) {
  std::vector<net::TraceRecord> recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(1.2, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 1));
  recs.push_back(make_record(1.5, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  const DelayAnalyzer a{recs};
  EXPECT_EQ(a.flow(0, 1).size(), 1u);
  EXPECT_EQ(a.unmatched_sends(), 1u);
}

TEST(DelayAnalyzerTest, NonAgentAndControlRecordsIgnored) {
  std::vector<net::TraceRecord> recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kMac, 0, 0, 1, 0));
  recs.push_back(make_record(1.5, net::TraceAction::kRecv, net::TraceLayer::kMac, 1, 0, 1, 0));
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 7,
                             net::PacketType::kAodvRreq));
  const DelayAnalyzer a{recs};
  EXPECT_TRUE(a.all().empty());
}

TEST(DelayAnalyzerTest, FlowsAreSeparatedByEndpoints) {
  std::vector<net::TraceRecord> recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(1.1, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 2, 0));
  recs.push_back(make_record(1.4, net::TraceAction::kRecv, net::TraceLayer::kAgent, 2, 0, 2, 0));
  const DelayAnalyzer a{recs};
  EXPECT_EQ(a.flow(0, 1).size(), 1u);
  EXPECT_EQ(a.flow(0, 2).size(), 1u);
  EXPECT_EQ(a.to_destination(2).size(), 1u);
  EXPECT_DOUBLE_EQ(a.flow(0, 2)[0].delay_seconds(), 0.4);
}

TEST(DelayAnalyzerTest, SummaryAndInitialPacketHelpers) {
  std::vector<net::TraceRecord> recs;
  for (int i = 0; i < 3; ++i) {
    recs.push_back(make_record(1.0 + i, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0,
                               1, static_cast<std::uint64_t>(i)));
    recs.push_back(make_record(1.0 + i + 0.1 * (i + 1), net::TraceAction::kRecv,
                               net::TraceLayer::kAgent, 1, 0, 1,
                               static_cast<std::uint64_t>(i)));
  }
  const DelayAnalyzer a{recs};
  const auto flow = a.flow(0, 1);
  const auto s = DelayAnalyzer::summarize(flow);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_NEAR(s.mean(), 0.2, 1e-9);
  EXPECT_NEAR(DelayAnalyzer::initial_packet_delay_seconds(flow), 0.1, 1e-9);
  EXPECT_LT(DelayAnalyzer::initial_packet_delay_seconds({}), 0.0);
}

// ---------------------------------------------------------------------------
// ThroughputMonitor
// ---------------------------------------------------------------------------

TEST(ThroughputMonitorTest, SamplesDeltaAsMbps) {
  net::Env env{1};
  std::uint64_t bytes = 0;
  ThroughputMonitor mon{env, [&] { return bytes; }, 100_ms};
  mon.start();
  // 12,500 bytes per 100 ms = 1 Mb/s.
  for (int i = 0; i < 10; ++i) {
    env.scheduler().schedule_at(Time::milliseconds(i * 100 + 50), [&] { bytes += 12'500; });
  }
  env.scheduler().run_until(Time::seconds(std::int64_t{1}));
  mon.stop();
  ASSERT_EQ(mon.series().size(), 10u);
  for (const auto& p : mon.series().points()) EXPECT_NEAR(p.value, 1.0, 1e-9);
}

TEST(ThroughputMonitorTest, IdlePeriodsReadZero) {
  net::Env env{1};
  std::uint64_t bytes = 0;
  ThroughputMonitor mon{env, [&] { return bytes; }, 100_ms};
  mon.start();
  env.scheduler().schedule_at(Time::milliseconds(550), [&] { bytes += 25'000; });
  env.scheduler().run_until(Time::seconds(std::int64_t{1}));
  const auto& pts = mon.series().points();
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_NEAR(pts[0].value, 0.0, 1e-12);
  EXPECT_NEAR(pts[5].value, 2.0, 1e-9);  // the burst lands in one bin
  EXPECT_NEAR(pts[9].value, 0.0, 1e-12);
}

TEST(ThroughputMonitorTest, StartIsIdempotentAndStopHalts) {
  net::Env env{1};
  std::uint64_t bytes = 0;
  ThroughputMonitor mon{env, [&] { return bytes; }, 100_ms};
  mon.start();
  mon.start();
  env.scheduler().run_until(Time::milliseconds(500));
  mon.stop();
  const auto n = mon.series().size();
  env.scheduler().run_until(Time::seconds(std::int64_t{2}));
  EXPECT_EQ(mon.series().size(), n);
}

TEST(ThroughputMonitorTest, ValidatesArguments) {
  net::Env env{1};
  EXPECT_THROW(ThroughputMonitor(env, nullptr, 100_ms), std::invalid_argument);
  EXPECT_THROW(ThroughputMonitor(env, [] { return std::uint64_t{0}; }, Time::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace eblnet::trace
