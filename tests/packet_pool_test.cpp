#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <variant>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace eblnet::net {
namespace {

using sim::Time;

Packet make_loaded_packet() {
  Packet p;
  p.uid = 99;
  p.type = PacketType::kAodvRerr;
  p.payload_bytes = 512;
  p.created = Time::seconds(std::int64_t{3});
  p.app_seq = 7;
  p.prev_hop = 4;
  p.priority = 6;
  p.mac = MacHeader{1, 2, Time::microseconds(std::int64_t{100}), true};
  p.ip = Ipv4Header{1, 2, 16};
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({5, 10});
  rerr.unreachable.push_back({6, 11});
  p.aodv = rerr;
  return p;
}

TEST(PacketPoolTest, AcquireReturnsDefaultStatePacket) {
  PacketPool pool;
  PooledPacket h = pool.acquire();
  ASSERT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(h->uid, 0u);
  EXPECT_EQ(h->type, PacketType::kUdpData);
  EXPECT_FALSE(h->mac.has_value());
  EXPECT_FALSE(h->ip.has_value());
  EXPECT_FALSE(h->aodv.has_value());
  EXPECT_FALSE(h->dsdv.has_value());
  EXPECT_EQ(pool.total_count(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(PacketPoolTest, ReleaseRecyclesStorageAndFullyResets) {
  PacketPool pool;
  Packet* storage = nullptr;
  {
    PooledPacket h = pool.adopt(make_loaded_packet());
    storage = h.get();
    EXPECT_EQ(h->uid, 99u);
  }  // handle destruction releases to the pool
  EXPECT_EQ(pool.total_count(), 1u);
  EXPECT_EQ(pool.free_count(), 1u);

  // The next acquire must hand back the SAME storage with NO stale state.
  PooledPacket h2 = pool.acquire();
  EXPECT_EQ(h2.get(), storage);
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(h2->uid, 0u);
  EXPECT_EQ(h2->type, PacketType::kUdpData);
  EXPECT_EQ(h2->payload_bytes, 0u);
  EXPECT_EQ(h2->app_seq, 0u);
  EXPECT_EQ(h2->prev_hop, kBroadcastAddress);
  EXPECT_EQ(h2->priority, 0u);
  EXPECT_FALSE(h2->mac.has_value());
  EXPECT_FALSE(h2->ip.has_value());
  EXPECT_FALSE(h2->udp.has_value());
  EXPECT_FALSE(h2->tcp.has_value());
  EXPECT_FALSE(h2->aodv.has_value());
  EXPECT_FALSE(h2->dsdv.has_value());
}

TEST(PacketPoolTest, ClonePreservesUidAndContent) {
  PacketPool pool;
  const Packet original = make_loaded_packet();
  PooledPacket copy = pool.clone(original);
  ASSERT_TRUE(static_cast<bool>(copy));
  EXPECT_EQ(copy->uid, original.uid);
  EXPECT_EQ(copy->type, original.type);
  EXPECT_EQ(copy->payload_bytes, original.payload_bytes);
  EXPECT_EQ(copy->created, original.created);
  EXPECT_EQ(copy->app_seq, original.app_seq);
  EXPECT_EQ(copy->prev_hop, original.prev_hop);
  EXPECT_EQ(copy->priority, original.priority);  // EDCA's access category
  ASSERT_TRUE(copy->mac.has_value());
  EXPECT_EQ(copy->mac->src, 1u);
  EXPECT_TRUE(copy->mac->retry);
  ASSERT_TRUE(copy->aodv.has_value());
  const auto& rerr = std::get<AodvRerrHeader>(*copy->aodv);
  ASSERT_EQ(rerr.unreachable.size(), 2u);
  EXPECT_EQ(rerr.unreachable[0].dst, 5u);
  EXPECT_EQ(rerr.unreachable[1].seqno, 11u);
  EXPECT_EQ(copy->size_bytes(), original.size_bytes());
}

TEST(PacketPoolTest, CloneIsIndependentOfTheOriginal) {
  PacketPool pool;
  Packet original = make_loaded_packet();
  PooledPacket copy = pool.clone(original);
  std::get<AodvRerrHeader>(*original.aodv).unreachable.clear();
  original.uid = 0;
  const auto& rerr = std::get<AodvRerrHeader>(*copy->aodv);
  EXPECT_EQ(rerr.unreachable.size(), 2u);
  EXPECT_EQ(copy->uid, 99u);
}

TEST(PacketPoolTest, SteadyStateCycleDoesNotGrowThePool) {
  PacketPool pool;
  for (int i = 0; i < 100; ++i) {
    PooledPacket h = pool.adopt(make_loaded_packet());
    PooledPacket c = pool.clone(*h);
  }
  // One in-flight original + one clone at a time: two shells total.
  EXPECT_EQ(pool.total_count(), 2u);
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(PacketPoolTest, DsdvRouteVectorIsRecycledAndReset) {
  PacketPool pool;
  {
    PooledPacket h = pool.acquire();
    DsdvUpdateHeader upd;
    upd.routes.push_back({1, 2, 3});
    upd.routes.push_back({4, 5, 6});
    h->dsdv = std::move(upd);
  }
  PooledPacket h2 = pool.acquire();
  EXPECT_FALSE(h2->dsdv.has_value());

  // A clone of a DSDV update copies its routes.
  Packet src;
  src.type = PacketType::kDsdvUpdate;
  DsdvUpdateHeader upd;
  upd.routes.push_back({7, 8, 9});
  src.dsdv = std::move(upd);
  PooledPacket copy = pool.clone(src);
  ASSERT_TRUE(copy->dsdv.has_value());
  ASSERT_EQ(copy->dsdv->routes.size(), 1u);
  EXPECT_EQ(copy->dsdv->routes[0].dst, 7u);
}

TEST(PacketPoolTest, MovedFromHandleIsEmptyAndDoesNotDoubleRelease) {
  PacketPool pool;
  PooledPacket a = pool.acquire();
  PooledPacket b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  ASSERT_TRUE(static_cast<bool>(b));
  a.reset();  // no-op on the empty handle
  EXPECT_EQ(pool.free_count(), 0u);
  b.reset();
  EXPECT_EQ(pool.free_count(), 1u);
  b.reset();  // idempotent after release
  EXPECT_EQ(pool.free_count(), 1u);
}

}  // namespace
}  // namespace eblnet::net
