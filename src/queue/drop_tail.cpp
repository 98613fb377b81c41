#include "queue/drop_tail.hpp"

#include <stdexcept>

namespace eblnet::queue {

DropTailQueue::DropTailQueue(std::size_t capacity) : q_{capacity} {
  if (capacity == 0) throw std::invalid_argument{"DropTailQueue: capacity must be > 0"};
}

bool DropTailQueue::enqueue(net::Packet p) {
  if (q_.size() >= q_.bound()) {
    drop(std::move(p), "IFQ");
    return false;
  }
  q_.push_back(std::move(p));
  metric(sim::Counter::kIfqEnqueued);
  metric_sample(sim::Gauge::kIfqDepth, static_cast<double>(q_.size()));
  return true;
}

std::optional<net::Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  net::Packet p = q_.pop_front();
  metric(sim::Counter::kIfqDequeued);
  return p;
}

const net::Packet* DropTailQueue::peek() const { return q_.empty() ? nullptr : &q_.front(); }

std::vector<net::Packet> DropTailQueue::remove_by_next_hop(net::NodeId next_hop) {
  std::vector<net::Packet> removed;
  for (std::size_t i = 0; i < q_.size();) {
    net::Packet& p = q_.at(i);
    if (p.mac && p.mac->dst == next_hop) {
      removed.push_back(std::move(p));
      q_.erase(i);
    } else {
      ++i;
    }
  }
  metric(sim::Counter::kIfqRemoved, removed.size());
  return removed;
}

std::vector<net::Packet> DropTailQueue::flush_all() {
  std::vector<net::Packet> flushed;
  flushed.reserve(q_.size());
  while (!q_.empty()) flushed.push_back(q_.pop_front());
  metric(sim::Counter::kIfqFaultFlushed, flushed.size());
  return flushed;
}

void DropTailQueue::drop(net::Packet p, const char* reason) {
  ++drops_;
  metric(sim::Counter::kIfqDropped);
  if (drop_cb_) drop_cb_(p, reason);
}

bool PriQueue::enqueue(net::Packet p) {
  if (!net::is_routing_control(p.type)) return DropTailQueue::enqueue(std::move(p));
  auto& q = packets();
  if (q.size() >= capacity()) {
    // Priority arrivals displace the newest data packet rather than being
    // lost themselves (NS-2 PriQueue recv() head-inserts, then the tail
    // drop falls on the displaced packet).
    for (std::size_t i = q.size(); i-- > 0;) {
      if (!net::is_routing_control(q.at(i).type)) {
        net::Packet victim = std::move(q.at(i));
        q.erase(i);
        q.push_front(std::move(p));
        metric(sim::Counter::kIfqEnqueued);
        metric_sample(sim::Gauge::kIfqDepth, static_cast<double>(q.size()));
        drop(std::move(victim), "IFQ");
        return true;
      }
    }
    drop(std::move(p), "IFQ");
    return false;
  }
  q.push_front(std::move(p));
  metric(sim::Counter::kIfqEnqueued);
  metric_sample(sim::Gauge::kIfqDepth, static_cast<double>(q.size()));
  return true;
}

}  // namespace eblnet::queue
