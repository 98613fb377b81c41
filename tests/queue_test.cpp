#include <gtest/gtest.h>

#include "queue/drop_tail.hpp"

namespace eblnet::queue {
namespace {

net::Packet data_packet(std::uint64_t uid, net::NodeId mac_dst = 1) {
  net::Packet p;
  p.uid = uid;
  p.type = net::PacketType::kTcpData;
  p.mac.emplace();
  p.mac->dst = mac_dst;
  return p;
}

net::Packet routing_packet(std::uint64_t uid) {
  net::Packet p;
  p.uid = uid;
  p.type = net::PacketType::kAodvRreq;
  p.mac.emplace();
  return p;
}

// ---------------------------------------------------------------------------
// DropTailQueue
// ---------------------------------------------------------------------------

TEST(DropTailTest, FifoOrder) {
  DropTailQueue q{10};
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  q.enqueue(data_packet(3));
  EXPECT_EQ(q.length(), 3u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 3u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailTest, DropsArrivalsWhenFull) {
  DropTailQueue q{2};
  EXPECT_TRUE(q.enqueue(data_packet(1)));
  EXPECT_TRUE(q.enqueue(data_packet(2)));
  EXPECT_FALSE(q.enqueue(data_packet(3)));
  EXPECT_EQ(q.drop_count(), 1u);
  EXPECT_EQ(q.length(), 2u);
  EXPECT_EQ(q.dequeue()->uid, 1u);  // survivors untouched
}

TEST(DropTailTest, DropCallbackSeesVictimAndReason) {
  DropTailQueue q{1};
  std::uint64_t dropped_uid = 0;
  std::string reason;
  q.set_drop_callback([&](const net::Packet& p, const char* r) {
    dropped_uid = p.uid;
    reason = r;
  });
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  EXPECT_EQ(dropped_uid, 2u);
  EXPECT_EQ(reason, "IFQ");
}

TEST(DropTailTest, PeekDoesNotRemove) {
  DropTailQueue q{5};
  EXPECT_EQ(q.peek(), nullptr);
  q.enqueue(data_packet(9));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->uid, 9u);
  EXPECT_EQ(q.length(), 1u);
}

TEST(DropTailTest, RemoveByNextHopExtractsMatches) {
  DropTailQueue q{10};
  q.enqueue(data_packet(1, 5));
  q.enqueue(data_packet(2, 6));
  q.enqueue(data_packet(3, 5));
  const auto removed = q.remove_by_next_hop(5);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].uid, 1u);
  EXPECT_EQ(removed[1].uid, 3u);
  EXPECT_EQ(q.length(), 1u);
  EXPECT_EQ(q.peek()->uid, 2u);
}

TEST(DropTailTest, ZeroCapacityRejected) {
  EXPECT_THROW(DropTailQueue{0}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PriQueue
// ---------------------------------------------------------------------------

TEST(PriQueueTest, RoutingPacketsJumpTheLine) {
  PriQueue q{10};
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  q.enqueue(routing_packet(100));
  EXPECT_EQ(q.dequeue()->uid, 100u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST(PriQueueTest, MultipleRoutingPacketsAreLifoAmongThemselves) {
  // NS-2 PriQueue head-inserts each control packet, so the newest control
  // packet is dequeued first.
  PriQueue q{10};
  q.enqueue(routing_packet(100));
  q.enqueue(routing_packet(101));
  q.enqueue(data_packet(1));
  EXPECT_EQ(q.dequeue()->uid, 101u);
  EXPECT_EQ(q.dequeue()->uid, 100u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST(PriQueueTest, FullQueueDisplacesNewestDataForControl) {
  PriQueue q{3};
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  q.enqueue(data_packet(3));
  std::uint64_t dropped = 0;
  q.set_drop_callback([&](const net::Packet& p, const char*) { dropped = p.uid; });
  EXPECT_TRUE(q.enqueue(routing_packet(100)));
  EXPECT_EQ(dropped, 3u);  // newest data packet sacrificed
  EXPECT_EQ(q.length(), 3u);
  EXPECT_EQ(q.dequeue()->uid, 100u);
}

TEST(PriQueueTest, FullQueueOfControlDropsIncomingControl) {
  PriQueue q{2};
  q.enqueue(routing_packet(1));
  q.enqueue(routing_packet(2));
  EXPECT_FALSE(q.enqueue(routing_packet(3)));
  EXPECT_EQ(q.drop_count(), 1u);
}

TEST(PriQueueTest, DataStillDropTail) {
  PriQueue q{2};
  q.enqueue(data_packet(1));
  q.enqueue(data_packet(2));
  EXPECT_FALSE(q.enqueue(data_packet(3)));
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST(PriQueueTest, HeadInsertAtGrowthBoundaryKeepsOrder) {
  // Four data packets fill the first slot allocation; the control packet
  // head-inserts exactly when the ring must grow.
  PriQueue q{50};
  for (std::uint64_t i = 1; i <= PacketRing::kInitialSlots; ++i) q.enqueue(data_packet(i));
  EXPECT_TRUE(q.enqueue(routing_packet(100)));
  EXPECT_EQ(q.dequeue()->uid, 100u);
  for (std::uint64_t i = 1; i <= PacketRing::kInitialSlots; ++i) EXPECT_EQ(q.dequeue()->uid, i);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(PriQueueTest, DisplacementAtOddBoundAfterGrowth) {
  // Bound 5 is not a power-of-two multiple of the first allocation, so the
  // second growth clamps to it; the full queue then displaces its newest
  // data packet for a control arrival.
  PriQueue q{5};
  for (std::uint64_t i = 1; i <= 5; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  std::uint64_t dropped = 0;
  q.set_drop_callback([&](const net::Packet& p, const char*) { dropped = p.uid; });
  EXPECT_TRUE(q.enqueue(routing_packet(100)));
  EXPECT_EQ(dropped, 5u);
  EXPECT_EQ(q.length(), 5u);
  const std::uint64_t expected[] = {100, 1, 2, 3, 4};
  for (std::uint64_t uid : expected) EXPECT_EQ(q.dequeue()->uid, uid);
}

// ---------------------------------------------------------------------------
// PacketRing: slots grow with occupancy, bounded by the queue's capacity
// ---------------------------------------------------------------------------

TEST(PacketRingTest, ReservesNoSlotsBeforeFirstPush) {
  PacketRing r{50};
  EXPECT_EQ(r.slots(), 0u);
  EXPECT_EQ(r.bound(), 50u);
  EXPECT_TRUE(r.empty());
  r.push_back(data_packet(1));
  EXPECT_EQ(r.slots(), PacketRing::kInitialSlots);
}

TEST(PacketRingTest, GrowthDoublesAndClampsToBound) {
  PacketRing r{50};
  std::vector<std::size_t> seen;
  for (std::uint64_t i = 0; i < 50; ++i) {
    r.push_back(data_packet(i));
    if (seen.empty() || seen.back() != r.slots()) seen.push_back(r.slots());
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{4, 8, 16, 32, 50}));
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(r.pop_front().uid, i);
}

TEST(PacketRingTest, FifoOrderSurvivesGrowthWithWrappedHead) {
  PacketRing r{50};
  for (std::uint64_t i = 0; i < 4; ++i) r.push_back(data_packet(i));
  // Advance the head so the live range wraps: slots hold 4,5,2,3 with the
  // head at slot 2.
  EXPECT_EQ(r.pop_front().uid, 0u);
  EXPECT_EQ(r.pop_front().uid, 1u);
  r.push_back(data_packet(4));
  r.push_back(data_packet(5));
  ASSERT_EQ(r.slots(), 4u);
  r.push_back(data_packet(6));  // full and wrapped: grows
  EXPECT_EQ(r.slots(), 8u);
  for (std::uint64_t i = 2; i <= 6; ++i) EXPECT_EQ(r.pop_front().uid, i);
  EXPECT_TRUE(r.empty());
}

TEST(PacketRingTest, PushFrontAtGrowthBoundary) {
  PacketRing r{50};
  for (std::uint64_t i = 1; i <= 4; ++i) r.push_back(data_packet(i));
  r.push_front(routing_packet(100));
  EXPECT_EQ(r.slots(), 8u);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.front().uid, 100u);
  for (std::uint64_t i = 1; i <= 4; ++i) EXPECT_EQ(r.at(static_cast<std::size_t>(i)).uid, i);
}

TEST(PacketRingTest, EraseAfterGrowth) {
  PacketRing r{50};
  for (std::uint64_t i = 0; i < 10; ++i) r.push_back(data_packet(i));
  r.erase(0);
  r.erase(4);  // uid 5
  r.erase(7);  // uid 9, the last element
  const std::uint64_t expected[] = {1, 2, 3, 4, 6, 7, 8};
  ASSERT_EQ(r.size(), std::size(expected));
  for (std::uint64_t uid : expected) EXPECT_EQ(r.pop_front().uid, uid);
}

TEST(DropTailTest, DropsExactlyAtBoundAfterGrowth) {
  DropTailQueue q{50};
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  EXPECT_EQ(q.drop_count(), 0u);
  EXPECT_FALSE(q.enqueue(data_packet(50)));
  EXPECT_EQ(q.drop_count(), 1u);
  EXPECT_EQ(q.length(), 50u);
  // Drain half and refill: the warm ring takes the bound again without
  // growing past it.
  for (std::uint64_t i = 0; i < 25; ++i) EXPECT_EQ(q.dequeue()->uid, i);
  for (std::uint64_t i = 51; i < 76; ++i) EXPECT_TRUE(q.enqueue(data_packet(i)));
  EXPECT_FALSE(q.enqueue(data_packet(76)));
  for (std::uint64_t i = 25; i < 50; ++i) EXPECT_EQ(q.dequeue()->uid, i);
  for (std::uint64_t i = 51; i < 76; ++i) EXPECT_EQ(q.dequeue()->uid, i);
}

TEST(DropTailTest, RemoveByNextHopAfterGrowthWithWrappedHead) {
  DropTailQueue q{50};
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(data_packet(i, 7));
  q.dequeue();
  q.dequeue();
  for (std::uint64_t i = 3; i < 12; ++i) q.enqueue(data_packet(i, i % 2 == 0 ? 5 : 7));
  const auto removed = q.remove_by_next_hop(5);
  ASSERT_EQ(removed.size(), 4u);
  for (std::size_t k = 0; k < removed.size(); ++k) EXPECT_EQ(removed[k].uid, 4 + 2 * k);
  const std::uint64_t kept[] = {2, 3, 5, 7, 9, 11};
  ASSERT_EQ(q.length(), std::size(kept));
  for (std::uint64_t uid : kept) EXPECT_EQ(q.dequeue()->uid, uid);
}

}  // namespace
}  // namespace eblnet::queue
