#include <gtest/gtest.h>

#include "app/traffic.hpp"
#include "test_net.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace eblnet::transport {
namespace {

using sim::Time;
using namespace sim::time_literals;

/// Interface queue that silently discards chosen data enqueues (by 0-based
/// data-packet index) — deterministic loss injection below TCP.
class LossyQueue final : public queue::PriQueue {
 public:
  explicit LossyQueue(std::vector<std::uint64_t> drop_indices)
      : drops_{std::move(drop_indices)} {}

  bool enqueue(net::Packet p) override {
    if (p.type == net::PacketType::kTcpData && !p.mac->retry) {
      const std::uint64_t idx = data_seen_++;
      for (const std::uint64_t d : drops_) {
        if (d == idx) return false;  // vanish without a drop callback
      }
    }
    return queue::PriQueue::enqueue(std::move(p));
  }

 private:
  std::vector<std::uint64_t> drops_;
  std::uint64_t data_seen_{0};
};

class TcpFixture : public ::testing::Test {
 protected:
  eblnet::testing::TestNet net{3};

  /// Two nodes 10 m apart, 802.11, static direct routing.
  void build_pair(std::unique_ptr<net::PacketQueue> sender_queue = nullptr) {
    net::Node& a = net.add_node({0.0, 0.0});
    if (sender_queue) {
      net.with_80211_queue(a, std::move(sender_queue));
    } else {
      net.with_80211(a);
    }
    net.with_static(a);
    net::Node& b = net.add_node({10.0, 0.0});
    net.with_80211(b);
    net.with_static(b);
  }
};

TEST_F(TcpFixture, FtpTransfersInOrderWithoutGaps) {
  build_pair();
  TcpParams params;
  params.packet_size = 1000;
  params.max_window = 8;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.set_infinite_data();
  net.run_for(2_s);

  EXPECT_GT(rx.packets_received(), 100u);
  EXPECT_EQ(rx.duplicates(), 0u);
  EXPECT_EQ(rx.in_order_bytes(), rx.bytes());
  // Cumulative ACK invariant: everything up to expected-1 arrived.
  EXPECT_EQ(rx.expected_minus_one(), static_cast<std::int64_t>(rx.packets_received()) - 1);
}

TEST_F(TcpFixture, FtpSourceStartedBeforeConnectSendsAtConnect) {
  build_pair();
  TcpSender tx{net.node(0), 100};
  TcpSink rx{net.node(1), 200};
  tx.set_infinite_data();  // no peer yet: nothing can leave
  net.run_for(300_ms);
  EXPECT_EQ(tx.next_seq(), 0);
  tx.connect(1, 200);
  EXPECT_GT(tx.next_seq(), 0);
  // The first segment leaves at the connect instant.
  EXPECT_EQ(net.tracer().count(net::TraceAction::kSend, net::TraceLayer::kAgent),
            static_cast<std::size_t>(tx.next_seq()));
  EXPECT_EQ(net.env().now(), 300_ms);
  net.run_for(1_s);
  EXPECT_GT(rx.packets_received(), 0u);
}

TEST_F(TcpFixture, SlowStartDoublesPerRtt) {
  build_pair();
  TcpParams params;
  params.max_window = 64;
  params.initial_ssthresh = 64;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  EXPECT_DOUBLE_EQ(tx.cwnd(), 1.0);
  tx.set_infinite_data();
  net.run_for(50_ms);
  // Each ACK adds one packet to cwnd during slow start: after k ACKs,
  // cwnd = 1 + k. With no loss, cwnd must have grown well beyond 2.
  EXPECT_GT(tx.cwnd(), 4.0);
  EXPECT_EQ(tx.stats().timeouts, 0u);
}

TEST_F(TcpFixture, CongestionAvoidanceIsLinear) {
  build_pair();
  TcpParams params;
  params.max_window = 1000.0;
  params.initial_ssthresh = 4.0;  // leave slow start almost immediately
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.set_infinite_data();
  net.run_for(200_ms);
  const double w1 = tx.cwnd();
  net.run_for(200_ms);
  const double w2 = tx.cwnd();
  // Growth continues but is decidedly sublinear vs slow start.
  EXPECT_GT(w2, w1);
  EXPECT_LT(w2, w1 * 1.8);
}

TEST_F(TcpFixture, WindowNeverExceedsCap) {
  build_pair();
  TcpParams params;
  params.max_window = 6;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.set_infinite_data();
  for (int i = 0; i < 20; ++i) {
    net.run_for(50_ms);
    EXPECT_LE(tx.next_seq() - tx.highest_ack() - 1, 6);
  }
}

TEST_F(TcpFixture, SingleLossRecoversByFastRetransmit) {
  // Drop the 10th data packet once; dupacks must trigger fast retransmit
  // and the stream must stay gap-free.
  build_pair(std::make_unique<LossyQueue>(std::vector<std::uint64_t>{10}));
  TcpParams params;
  params.max_window = 16;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.set_infinite_data();
  net.run_for(2_s);

  EXPECT_GE(tx.stats().fast_retransmits, 1u);
  EXPECT_EQ(tx.stats().timeouts, 0u);
  EXPECT_EQ(rx.in_order_bytes(), rx.bytes() - 1000 * rx.duplicates());
  EXPECT_GT(rx.packets_received(), 100u);
  EXPECT_EQ(rx.expected_minus_one() + 1,
            static_cast<std::int64_t>(rx.packets_received() - rx.duplicates()));
}

TEST_F(TcpFixture, BurstLossRecoversEventually) {
  build_pair(std::make_unique<LossyQueue>(std::vector<std::uint64_t>{5, 6, 7, 8}));
  TcpParams params;
  params.max_window = 16;
  params.min_rto = 200_ms;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.set_infinite_data();
  net.run_for(5_s);

  EXPECT_GT(rx.packets_received(), 200u);
  EXPECT_EQ(rx.in_order_bytes() % 1000, 0u);
  // A four-packet burst overwhelms dupack recovery at this window; some
  // combination of fast retransmit and RTO must have repaired the stream.
  EXPECT_GE(tx.stats().retransmits, 1u);
  EXPECT_GE(tx.stats().fast_retransmits + tx.stats().timeouts, 1u);
  // No holes at the end of the day.
  EXPECT_GE(rx.expected_minus_one(), 200);
}

TEST_F(TcpFixture, UnreachablePeerTimesOutWithBackoff) {
  net::Node& a = net.add_node({0.0, 0.0});
  net.with_80211(a);
  net.with_static(a);
  net.add_node({600.0, 0.0});  // out of range, no stack

  TcpParams params;
  params.min_rto = 500_ms;
  TcpSender tx{net.node(0), 100, params};
  tx.connect(1, 200);
  const Time rto0 = tx.current_rto();
  tx.advance_bytes(1000);
  net.run_for(20_s);

  EXPECT_GE(tx.stats().timeouts, 2u);
  EXPECT_GT(tx.current_rto(), rto0);  // exponential backoff kicked in
  EXPECT_GT(tx.stats().retransmits, 0u);
}

TEST_F(TcpFixture, RttEstimateTightensRto) {
  build_pair();
  TcpSender tx{net.node(0), 100};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  EXPECT_EQ(tx.current_rto(), TcpParams{}.initial_rto);
  tx.set_infinite_data();
  net.run_for(1_s);
  // RTT over one quiet 802.11 hop is a few ms; RTO collapses to min_rto.
  EXPECT_EQ(tx.current_rto(), TcpParams{}.min_rto);
}

TEST_F(TcpFixture, AdvanceBytesPacketizes) {
  build_pair();
  TcpParams params;
  params.packet_size = 500;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.advance_bytes(1250);  // 2.5 packets -> only 2 full packets go out
  net.run_for(1_s);
  EXPECT_EQ(rx.packets_received(), 2u);
  tx.advance_bytes(250);  // completes the third packet
  net.run_for(1_s);
  EXPECT_EQ(rx.packets_received(), 3u);
}

TEST_F(TcpFixture, TruncateBacklogStopsNewData) {
  build_pair();
  TcpParams params;
  params.packet_size = 1000;
  params.max_window = 2;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  tx.advance_bytes(100'000);  // large backlog
  net.run_for(20_ms);
  tx.truncate_backlog();
  const std::int64_t sent_at_truncate = tx.next_seq();
  net.run_for(2_s);
  // Everything already packetised is delivered, nothing more.
  EXPECT_EQ(static_cast<std::int64_t>(rx.packets_received()), sent_at_truncate);
}

TEST_F(TcpFixture, DelaySpansRetransmission) {
  // The packet lost at the MAC keeps its original `created` stamp, so the
  // sink-side one-way delay includes the recovery time.
  build_pair(std::make_unique<LossyQueue>(std::vector<std::uint64_t>{3}));
  TcpParams params;
  params.max_window = 8;
  TcpSender tx{net.node(0), 100, params};
  TcpSink rx{net.node(1), 200};
  tx.connect(1, 200);
  Time max_delay{};
  rx.set_data_callback([&](const net::Packet& p) {
    const Time d = net.env().now() - p.created;
    if (d > max_delay) max_delay = d;
  });
  tx.set_infinite_data();
  net.run_for(2_s);
  EXPECT_GE(tx.stats().fast_retransmits, 1u);
  // Recovery takes at least ~3 extra packet times, far above the ~2 ms norm.
  EXPECT_GT(max_delay.to_seconds(), 5e-3);
}

TEST_F(TcpFixture, TwoParallelConnectionsShareTheLink) {
  build_pair();
  TcpParams params;
  params.max_window = 8;
  TcpSender tx1{net.node(0), 100, params};
  TcpSender tx2{net.node(0), 101, params};
  TcpSink rx1{net.node(1), 200};
  TcpSink rx2{net.node(1), 201};
  tx1.connect(1, 200);
  tx2.connect(1, 201);
  tx1.set_infinite_data();
  tx2.set_infinite_data();
  net.run_for(2_s);
  EXPECT_GT(rx1.packets_received(), 50u);
  EXPECT_GT(rx2.packets_received(), 50u);
  // Rough fairness between identical flows.
  const double ratio = static_cast<double>(rx1.packets_received()) /
                       static_cast<double>(rx2.packets_received());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST_F(TcpFixture, SenderValidatesParameters) {
  build_pair();
  const auto rejects = [&](const char* field, auto&& spoil) {
    TcpParams bad;
    spoil(bad);
    try {
      TcpSender sender(net.node(0), 100, bad);
      ADD_FAILURE() << field << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
    }
  };
  rejects("packet size", [](TcpParams& p) { p.packet_size = 0; });
  rejects("max_backoff", [](TcpParams& p) { p.max_backoff = 0; });
  rejects("min_rto", [](TcpParams& p) { p.min_rto = Time::zero(); });
  rejects("min_rto", [](TcpParams& p) { p.min_rto = Time::zero() - 1_ms; });
  rejects("min_rto", [](TcpParams& p) { p.min_rto = p.max_rto + 1_ns; });
  rejects("initial_window", [](TcpParams& p) { p.initial_window = 0.5; });
  rejects("max_window", [](TcpParams& p) { p.max_window = 0.0; });
  // The smallest valid values still build a sender.
  TcpParams edge;
  edge.max_backoff = 1;
  edge.min_rto = edge.max_rto;
  edge.initial_window = 1.0;
  edge.max_window = 1.0;
  EXPECT_NO_THROW(TcpSender(net.node(0), 100, edge));
}

// ---------------------------------------------------------------------------
// TcpCbrFeeder's muted ticks vs an eager reference
// ---------------------------------------------------------------------------

/// The CBR feeder as it ran before muting: every interval one message into
/// the sender, re-armed through the same lane as the tick's last act, and
/// never muted.
class EagerFeeder {
 public:
  EagerFeeder(net::Env& env, TcpSender& tcp, std::size_t packet_bytes, Time interval)
      : tcp_{tcp},
        packet_bytes_{packet_bytes},
        lane_{env.scheduler().lane(interval)},
        timer_{env.scheduler(), [this] { tick(); }} {}

  void start() { tick(); }
  std::uint64_t packets_offered() const { return offered_; }

 private:
  void tick() {
    ++offered_;
    tcp_.node().env().metrics().add(tcp_.node().id(), sim::Counter::kAppMessagesGenerated);
    tcp_.advance_bytes(packet_bytes_);
    timer_.schedule_in(lane_);
  }

  TcpSender& tcp_;
  std::size_t packet_bytes_;
  sim::Scheduler::Lane lane_;
  std::uint64_t offered_{0};
  sim::Timer timer_;
};

enum class FeedCase { kOneLoss, kBurstLoss, kTahoe, kUnreachablePeer, kStartBeforeConnect };

/// What a feed run shows from outside, read every 100 ms checkpoint.
struct FeedRun {
  std::vector<std::pair<Time, std::uint64_t>> sends;        ///< agent-level (time, seq)
  std::vector<std::pair<Time, std::uint64_t>> receptions;  ///< at the sink
  std::vector<std::uint64_t> offered;    ///< packets_offered() per checkpoint
  std::vector<std::uint64_t> generated;  ///< kAppMessagesGenerated per checkpoint
  std::uint64_t events{0};
  std::int64_t next_seq{0};
  TcpStats stats;
};

/// Two 802.11 nodes 10 m apart (node 1 600 m off and without a stack for
/// kUnreachablePeer); a 4 Mb/s CBR feed into a TCP sender whose window
/// is shut most of the time, so most of the muting feeder's ticks are
/// muted.
template <typename Feeder>
FeedRun run_feed(FeedCase c, bool metrics) {
  eblnet::testing::TestNet net{3};
  net::Node& a = net.add_node({0.0, 0.0});
  switch (c) {
    case FeedCase::kOneLoss:
    case FeedCase::kTahoe:
      net.with_80211_queue(a, std::make_unique<LossyQueue>(std::vector<std::uint64_t>{20}));
      break;
    case FeedCase::kBurstLoss:
      net.with_80211_queue(a, std::make_unique<LossyQueue>(std::vector<std::uint64_t>{20, 21, 22}));
      break;
    default:
      net.with_80211(a);
  }
  net.with_static(a);
  if (c == FeedCase::kUnreachablePeer) {
    net.add_node({600.0, 0.0});
  } else {
    net::Node& b = net.add_node({10.0, 0.0});
    net.with_80211(b);
    net.with_static(b);
  }
  net.env().metrics().set_enabled(metrics);

  TcpParams params;
  params.max_window = 16;
  params.initial_rto = 200_ms;
  params.min_rto = 200_ms;
  if (c == FeedCase::kTahoe) params.flavor = TcpFlavor::kTahoe;
  TcpSender tx{net.node(0), 100, params};
  FeedRun run;
  std::unique_ptr<TcpSink> rx;
  if (c != FeedCase::kUnreachablePeer) {
    rx = std::make_unique<TcpSink>(net.node(1), 200);
    rx->set_data_callback(
        [&](const net::Packet& p) { run.receptions.emplace_back(net.env().now(), p.app_seq); });
  }
  Feeder feeder{net.env(), tx, 500, 1_ms};
  if (c != FeedCase::kStartBeforeConnect) tx.connect(1, 200);
  feeder.start();
  for (int i = 0; i < 30; ++i) {
    net.run_for(100_ms);
    if (c == FeedCase::kStartBeforeConnect && i == 4) tx.connect(1, 200);
    run.offered.push_back(feeder.packets_offered());
    run.generated.push_back(
        net.env().metrics().snapshot().node_counter(0, sim::Counter::kAppMessagesGenerated));
  }
  const auto& records = net.tracer().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const net::TraceRecord& r = records[i];
    if (r.action == net::TraceAction::kSend && r.layer == net::TraceLayer::kAgent && r.node == 0)
      run.sends.emplace_back(r.t, r.app_seq);
  }
  run.events = net.env().scheduler().executed_count();
  run.next_seq = tx.next_seq();
  run.stats = tx.stats();
  return run;
}

TEST(TcpCbrFeederMuting, MatchesAnEagerFeederOverLossyLinks) {
  const struct {
    FeedCase c;
    const char* name;
  } cases[] = {{FeedCase::kOneLoss, "one loss, Reno fast retransmit"},
               {FeedCase::kBurstLoss, "burst loss, NewReno partial ACKs"},
               {FeedCase::kTahoe, "one loss, Tahoe"},
               {FeedCase::kUnreachablePeer, "unreachable peer, RTO backoff"},
               {FeedCase::kStartBeforeConnect, "feeder started before connect"}};
  for (const auto& fc : cases) {
    for (const bool metrics : {false, true}) {
      SCOPED_TRACE(::testing::Message() << fc.name << (metrics ? ", metrics on" : ", metrics off"));
      const FeedRun eager = run_feed<EagerFeeder>(fc.c, metrics);
      const FeedRun muted = run_feed<app::TcpCbrFeeder>(fc.c, metrics);
      EXPECT_EQ(muted.sends, eager.sends);
      EXPECT_EQ(muted.receptions, eager.receptions);
      EXPECT_EQ(muted.offered, eager.offered);
      EXPECT_EQ(muted.generated, eager.generated);
      EXPECT_EQ(muted.events, eager.events);
      EXPECT_EQ(muted.next_seq, eager.next_seq);
      EXPECT_EQ(muted.stats.retransmits, eager.stats.retransmits);
      EXPECT_EQ(muted.stats.timeouts, eager.stats.timeouts);
      EXPECT_EQ(muted.stats.fast_retransmits, eager.stats.fast_retransmits);

      // Each case reaches the path it is named for, behind a shut window.
      EXPECT_GT(eager.offered.back(), static_cast<std::uint64_t>(eager.next_seq) * 2);
      EXPECT_EQ(eager.generated.back(), metrics ? eager.offered.back() : 0u);
      switch (fc.c) {
        case FeedCase::kOneLoss:
        case FeedCase::kTahoe:
          EXPECT_GE(eager.stats.fast_retransmits, 1u);
          break;
        case FeedCase::kBurstLoss:
          // One fast retransmit, then a partial ACK per further hole.
          EXPECT_GE(eager.stats.fast_retransmits, 1u);
          EXPECT_GE(eager.stats.retransmits, 3u);
          break;
        case FeedCase::kUnreachablePeer:
          EXPECT_GE(eager.stats.timeouts, 3u);
          break;
        case FeedCase::kStartBeforeConnect:
          // Nothing leaves before connect (500 ms); the backlog starts
          // leaving at connect.
          EXPECT_GE(eager.offered[3], 400u);
          EXPECT_EQ(eager.sends.front().first, 500_ms);
          break;
      }
    }
  }
}

}  // namespace
}  // namespace eblnet::transport
