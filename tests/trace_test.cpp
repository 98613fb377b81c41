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
  TraceStore in;
  in.push_back(make_record(2.013, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 2, 17));
  in.push_back(make_record(2.144, net::TraceAction::kDrop, net::TraceLayer::kIfq, 1, 0, 2, 25,
                           net::PacketType::kTcpData, "IFQ"));
  in.push_back(make_record(3.5, net::TraceAction::kForward, net::TraceLayer::kRouter, 1, 0, 2, 26,
                           net::PacketType::kAodvRrep));
  // Broadcast addresses must survive as "*".
  net::TraceRecord bc = make_record(4.0, net::TraceAction::kSend, net::TraceLayer::kRouter, 3,
                                    3, net::kBroadcastAddress, 0, net::PacketType::kAodvRreq);
  in.push_back(bc);
  // Every packet type, BEACON (the last) included.
  for (int i = 0; i <= static_cast<int>(net::PacketType::kBeacon); ++i) {
    in.push_back(make_record(5.0 + i, net::TraceAction::kSend, net::TraceLayer::kMac, 0, 0, 1,
                             static_cast<std::uint64_t>(i), static_cast<net::PacketType>(i)));
  }

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
  // Each line is well formed but for one field, and the error names the
  // line.
  const auto rejects = [](const char* line) {
    std::stringstream ss{std::string{"# header\n"} + line + "\n"};
    try {
      parse_trace(ss);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a runtime_error for \"" << line << "\": " << e.what();
    }
  };
  rejects("x 1.000000000 _0_ AGT 1 tcp 1040 0 1 0 -");
  rejects("s 1.000000000 _0_ WAT 1 tcp 1040 0 1 0 -");
  rejects("s 1.000000000 0 AGT 1 tcp 1040 0 1 0 -");
  rejects("s 1.000000000 _0_ AGT 1 tcp");
  // Times are read exactly, in the form Time::to_string writes.
  rejects("s nan _0_ AGT 1 tcp 1040 0 1 0 -");
  rejects("s 1e300 _0_ AGT 1 tcp 1040 0 1 0 -");
  rejects("s 9223372037.000000000 _0_ AGT 1 tcp 1040 0 1 0 -");
  rejects("s 1.5 _0_ AGT 1 tcp 1040 0 1 0 -");
  // Counts and addresses are decimals that fit their field.
  rejects("s 1.000000000 _0_ AGT abc tcp 1040 0 1 0 -");
  rejects("s 1.000000000 _0_ AGT -1 tcp 1040 0 1 0 -");
  rejects("s 1.000000000 _99999999999_ AGT 1 tcp 1040 0 1 0 -");
  rejects("s 1.000000000 _0_ AGT 1 tcp 1040 4294967296 1 0 -");
}

TEST(TraceIoTest, FormatRecordMatchesWriteTrace) {
  const auto r = make_record(2.5, net::TraceAction::kForward, net::TraceLayer::kRouter, 3, 3, 4,
                             9, net::PacketType::kAodvRrep);
  TraceStore one;
  one.push_back(r);
  std::stringstream ss;
  write_trace(ss, one);
  EXPECT_EQ(ss.str(), format_record(r) + "\n");
}

// ---------------------------------------------------------------------------
// DelayAnalyzer
// ---------------------------------------------------------------------------

TEST(DelayAnalyzerTest, MatchesFirstSendToFirstReceive) {
  TraceStore recs;
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
  TraceStore recs;
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
  TraceStore recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(1.2, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 1));
  recs.push_back(make_record(1.5, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  const DelayAnalyzer a{recs};
  EXPECT_EQ(a.flow(0, 1).size(), 1u);
  EXPECT_EQ(a.unmatched_sends(), 1u);
  ASSERT_EQ(a.offered().size(), 2u);
  EXPECT_TRUE(a.offered()[0].delivered);
  EXPECT_FALSE(a.offered()[1].delivered);
  EXPECT_EQ(a.offered()[1].sent, Time::seconds(1.2));
}

TEST(DelayAnalyzerTest, OnlyTheSourcesAgentSendOffersAPacket) {
  TraceStore recs;
  // An agent send traced at node 2 for a 0 -> 1 packet offers nothing,
  // and its receive then matches no offer.
  recs.push_back(make_record(0.5, net::TraceAction::kSend, net::TraceLayer::kAgent, 2, 0, 1, 0));
  recs.push_back(make_record(0.9, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  // Seq 1: the source's send counts, from its own time, not node 2's.
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 2, 0, 1, 1));
  recs.push_back(make_record(1.5, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 1));
  recs.push_back(make_record(1.7, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 1));
  const DelayAnalyzer a{recs};
  ASSERT_EQ(a.offered().size(), 1u);
  EXPECT_EQ(a.offered()[0].sent, Time::seconds(1.5));
  EXPECT_TRUE(a.offered()[0].delivered);
  ASSERT_EQ(a.all().size(), 1u);
  EXPECT_EQ(a.all()[0].seq, 1u);
  EXPECT_NEAR(a.all()[0].delay_seconds(), 0.2, 1e-9);
  EXPECT_EQ(a.unmatched_sends(), 0u);
}

TEST(DelayAnalyzerTest, NonAgentAndControlRecordsIgnored) {
  TraceStore recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kMac, 0, 0, 1, 0));
  recs.push_back(make_record(1.5, net::TraceAction::kRecv, net::TraceLayer::kMac, 1, 0, 1, 0));
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 7,
                             net::PacketType::kAodvRreq));
  const DelayAnalyzer a{recs};
  EXPECT_TRUE(a.all().empty());
}

TEST(DelayAnalyzerTest, FlowsAreSeparatedByEndpoints) {
  TraceStore recs;
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 1, 0));
  recs.push_back(make_record(1.1, net::TraceAction::kRecv, net::TraceLayer::kAgent, 1, 0, 1, 0));
  recs.push_back(make_record(1.0, net::TraceAction::kSend, net::TraceLayer::kAgent, 0, 0, 2, 0));
  recs.push_back(make_record(1.4, net::TraceAction::kRecv, net::TraceLayer::kAgent, 2, 0, 2, 0));
  const DelayAnalyzer a{recs};
  EXPECT_EQ(a.flow(0, 1).size(), 1u);
  EXPECT_EQ(a.flow(0, 2).size(), 1u);
  EXPECT_EQ(a.all().size(), 2u);
  EXPECT_DOUBLE_EQ(a.flow(0, 2)[0].delay_seconds(), 0.4);
}

TEST(DelayAnalyzerTest, SummaryAndInitialPacketHelpers) {
  TraceStore recs;
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
