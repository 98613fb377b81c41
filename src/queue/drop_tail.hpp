#pragma once

#include "net/layers.hpp"
#include "queue/packet_ring.hpp"

namespace eblnet::queue {

/// NS-2 `Queue/DropTail`: bounded FIFO; arrivals to a full queue are
/// dropped from the tail. Capacity is in packets (NS-2's default ifq
/// length is 50).
class DropTailQueue : public net::PacketQueue {
 public:
  explicit DropTailQueue(std::size_t capacity = 50);

  bool enqueue(net::Packet p) override;
  std::optional<net::Packet> dequeue() override;
  const net::Packet* peek() const override;
  std::vector<net::Packet> remove_by_next_hop(net::NodeId next_hop) override;
  std::vector<net::Packet> flush_all() override;
  std::size_t length() const override { return q_.size(); }
  std::uint64_t drop_count() const override { return drops_; }
  void set_drop_callback(DropCallback cb) override { drop_cb_ = std::move(cb); }

  std::size_t capacity() const noexcept { return q_.bound(); }

 protected:
  void drop(net::Packet p, const char* reason);
  PacketRing& packets() noexcept { return q_; }

 private:
  PacketRing q_;
  std::uint64_t drops_{0};
  DropCallback drop_cb_;
};

/// NS-2 `Queue/DropTail/PriQueue` (what the paper configures as the
/// interface queue): drop-tail, except routing-protocol packets are
/// inserted at the head so route discovery is never stuck behind data.
class PriQueue : public DropTailQueue {
 public:
  explicit PriQueue(std::size_t capacity = 50) : DropTailQueue(capacity) {}

  bool enqueue(net::Packet p) override;
};

}  // namespace eblnet::queue
