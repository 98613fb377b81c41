#include <gtest/gtest.h>

#include "queue/red.hpp"
#include "stats/summary.hpp"
#include "test_net.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace eblnet::queue {
namespace {

net::Packet data_packet(std::uint64_t uid) {
  net::Packet p;
  p.uid = uid;
  p.type = net::PacketType::kTcpData;
  p.mac.emplace();
  p.mac->dst = 1;
  return p;
}

net::Packet routing_packet(std::uint64_t uid) {
  net::Packet p;
  p.uid = uid;
  p.type = net::PacketType::kAodvRreq;
  p.mac.emplace();
  return p;
}

class RedQueueTest : public ::testing::Test {
 protected:
  sim::Rng rng{17};
};

TEST_F(RedQueueTest, BehavesAsFifoBelowMinThreshold) {
  RedQueue q{rng};
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  EXPECT_EQ(q.drop_count(), 0u);
  EXPECT_EQ(q.dequeue()->uid, 0u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST_F(RedQueueTest, EarlyDropsBeginAboveMinThreshold) {
  RedParams params;
  params.min_thresh = 3.0;
  params.max_thresh = 6.0;
  params.max_p = 0.5;
  params.weight = 1.0;  // avg == instantaneous: deterministic thresholds
  RedQueue q{rng, 50, params};
  int accepted = 0, offered = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    ++offered;
    if (q.enqueue(data_packet(i))) ++accepted;
    if (q.length() > 5) q.dequeue();  // keep it hovering above min_thresh
  }
  EXPECT_GT(q.early_drops(), 20u);
  EXPECT_LT(accepted, offered);
}

TEST_F(RedQueueTest, HardCapStillEnforced) {
  RedParams params;
  params.min_thresh = 100.0;  // early drops effectively off
  params.max_thresh = 200.0;
  RedQueue q{rng, 10, params};
  EXPECT_EQ(q.capacity(), 10u);
  for (std::uint64_t i = 0; i < 20; ++i) q.enqueue(data_packet(i));
  EXPECT_EQ(q.length(), 10u);
  EXPECT_EQ(q.forced_drops(), 10u);
  EXPECT_EQ(q.early_drops(), 0u);
}

TEST_F(RedQueueTest, RoutingPacketsBypassEarlyDropAndJumpQueue) {
  RedParams params;
  params.min_thresh = 1.0;
  params.max_thresh = 2.0;
  params.weight = 1.0;
  params.max_p = 1.0;  // every unprotected arrival above min is dropped
  RedQueue q{rng, 50, params};
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  EXPECT_TRUE(q.enqueue(routing_packet(100)));
  EXPECT_EQ(q.dequeue()->uid, 100u);  // head-inserted
  EXPECT_EQ(q.early_drops(), 0u);
}

TEST_F(RedQueueTest, AverageTracksOccupancy) {
  RedParams params;
  params.weight = 0.5;
  RedQueue q{rng, 50, params};
  for (std::uint64_t i = 0; i < 10; ++i) q.enqueue(data_packet(i));
  EXPECT_GT(q.average_queue(), 2.0);
  while (q.dequeue()) {
  }
  // Idle arrivals decay the average.
  for (int i = 0; i < 10; ++i) {
    q.enqueue(data_packet(100 + static_cast<std::uint64_t>(i)));
    q.dequeue();
  }
  EXPECT_LT(q.average_queue(), 1.0);
}

TEST_F(RedQueueTest, ValidatesParameters) {
  EXPECT_THROW(RedQueue(rng, 0), std::invalid_argument);
  RedParams bad;
  bad.min_thresh = bad.max_thresh;
  EXPECT_THROW(RedQueue(rng, 50, bad), std::invalid_argument);
  bad = RedParams{};
  bad.max_p = 0.0;
  EXPECT_THROW(RedQueue(rng, 50, bad), std::invalid_argument);
  bad = RedParams{};
  bad.weight = 0.0;
  EXPECT_THROW(RedQueue(rng, 50, bad), std::invalid_argument);
}

TEST_F(RedQueueTest, RemoveByNextHopWorks) {
  RedQueue q{rng};
  q.enqueue(data_packet(1));
  net::Packet other = data_packet(2);
  other.mac->dst = 9;
  q.enqueue(std::move(other));
  const auto removed = q.remove_by_next_hop(1);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].uid, 1u);
  EXPECT_EQ(q.length(), 1u);
}

// The ring under RED grows on demand (4, 8, ... slots up to the capacity);
// these pin the queue-visible behaviour across those growth steps. Early
// drops are switched off so every arrival below the cap is admitted.
RedParams no_early_drops() {
  RedParams params;
  params.min_thresh = 1000.0;
  params.max_thresh = 2000.0;
  return params;
}

TEST_F(RedQueueTest, FifoOrderAcrossGrowthWithWrappedHead) {
  RedQueue q{rng, 50, no_early_drops()};
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(data_packet(i));
  EXPECT_EQ(q.dequeue()->uid, 0u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
  // Three more wrap the live range round the first 4-slot allocation;
  // the fourth forces growth with the head mid-array.
  for (std::uint64_t i = 3; i < 20; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  for (std::uint64_t i = 2; i < 20; ++i) EXPECT_EQ(q.dequeue()->uid, i);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST_F(RedQueueTest, ProtectedHeadInsertAtGrowthBoundary) {
  RedQueue q{rng, 50, no_early_drops()};
  for (std::uint64_t i = 1; i <= 4; ++i) q.enqueue(data_packet(i));
  EXPECT_TRUE(q.enqueue(routing_packet(100)));  // 5th arrival: head-insert + grow
  EXPECT_EQ(q.length(), 5u);
  EXPECT_EQ(q.peek()->uid, 100u);
  EXPECT_EQ(q.dequeue()->uid, 100u);
  for (std::uint64_t i = 1; i <= 4; ++i) EXPECT_EQ(q.dequeue()->uid, i);
}

TEST_F(RedQueueTest, RemoveByNextHopAfterGrowth) {
  RedQueue q{rng, 50, no_early_drops()};
  for (std::uint64_t i = 0; i < 12; ++i) {
    net::Packet p = data_packet(i);
    p.mac->dst = i % 3 == 0 ? 1 : 9;
    q.enqueue(std::move(p));
  }
  const auto removed = q.remove_by_next_hop(1);
  ASSERT_EQ(removed.size(), 4u);
  for (std::size_t k = 0; k < removed.size(); ++k) EXPECT_EQ(removed[k].uid, 3 * k);
  const std::uint64_t kept[] = {1, 2, 4, 5, 7, 8, 10, 11};
  ASSERT_EQ(q.length(), std::size(kept));
  for (std::uint64_t uid : kept) EXPECT_EQ(q.dequeue()->uid, uid);
}

TEST_F(RedQueueTest, ForcedDropExactlyAtCapacityAfterGrowth) {
  // 6 is reached by growing 4 -> 6 (the doubling clamps to the cap).
  RedQueue q{rng, 6, no_early_drops()};
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  EXPECT_EQ(q.forced_drops(), 0u);
  EXPECT_FALSE(q.enqueue(data_packet(6)));
  EXPECT_FALSE(q.enqueue(routing_packet(100)));  // the cap binds control too
  EXPECT_EQ(q.forced_drops(), 2u);
  EXPECT_EQ(q.length(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(q.dequeue()->uid, i);
}

// End to end: with a window big enough to overflow a drop-tail queue, RED
// keeps the standing queue (and so the one-way delay) lower while
// sustaining comparable throughput.
TEST_F(RedQueueTest, RedKeepsTcpStandingQueueShorterThanDropTail) {
  struct Outcome {
    double avg_delay;
    std::uint64_t delivered;
  };
  auto run = [](bool use_red) {
    eblnet::testing::TestNet net{51};
    net::Node& a = net.add_node({0.0, 0.0});
    if (use_red) {
      RedParams params;
      params.min_thresh = 5.0;
      params.max_thresh = 15.0;
      params.max_p = 0.1;
      net.with_80211_queue(a, std::make_unique<RedQueue>(net.env().rng(), 50, params));
    } else {
      net.with_80211(a);  // 50-packet drop-tail PriQueue
    }
    net.with_static(a);
    net::Node& b = net.add_node({10.0, 0.0});
    net.with_80211(b);
    net.with_static(b);

    transport::TcpParams params;
    params.max_window = 100;  // deliberately window > buffer
    transport::TcpSender tx{a, 100, params};
    transport::TcpSink rx{b, 200};
    tx.connect(1, 200);
    eblnet::stats::Summary delay;
    rx.set_data_callback([&](const net::Packet& p) {
      delay.add((net.env().now() - p.created).to_seconds());
    });
    tx.set_infinite_data();
    net.run_for(sim::Time::seconds(std::int64_t{5}));
    return Outcome{delay.mean(), rx.packets_received()};
  };

  const Outcome droptail = run(false);
  const Outcome red = run(true);
  EXPECT_LT(red.avg_delay, droptail.avg_delay * 0.8);
  EXPECT_GT(red.delivered, droptail.delivered / 2);
}

}  // namespace
}  // namespace eblnet::queue
