#include "queue/red.hpp"

#include <stdexcept>

namespace eblnet::queue {

RedQueue::RedQueue(sim::Rng& rng, std::size_t capacity, RedParams params)
    : rng_{rng}, params_{params}, q_{capacity} {
  if (capacity == 0) throw std::invalid_argument{"RedQueue: capacity must be > 0"};
  if (!(params.min_thresh < params.max_thresh))
    throw std::invalid_argument{"RedQueue: min_thresh must be below max_thresh"};
  if (params.max_p <= 0.0 || params.max_p > 1.0)
    throw std::invalid_argument{"RedQueue: max_p must be in (0, 1]"};
  if (params.weight <= 0.0 || params.weight > 1.0)
    throw std::invalid_argument{"RedQueue: weight must be in (0, 1]"};
}

double RedQueue::drop_probability() const {
  if (avg_ < params_.min_thresh) return 0.0;
  if (avg_ >= params_.max_thresh) return 1.0;
  const double base =
      params_.max_p * (avg_ - params_.min_thresh) / (params_.max_thresh - params_.min_thresh);
  // Uniformize inter-drop gaps (the count correction from the RED paper).
  const double denom = 1.0 - static_cast<double>(count_since_drop_) * base;
  return denom <= 0.0 ? 1.0 : base / denom;
}

bool RedQueue::enqueue(net::Packet p) {
  // EWMA of the instantaneous length (re-anchored when idle).
  if (q_.empty()) {
    avg_ = (1.0 - params_.weight) * avg_;
  } else {
    avg_ += params_.weight * (static_cast<double>(q_.size()) - avg_);
  }

  const bool protected_pkt = params_.protect_routing && net::is_routing_control(p.type);

  if (q_.size() >= capacity()) {
    drop(std::move(p), "IFQ", forced_drops_);
    return false;
  }
  if (!protected_pkt && avg_ >= params_.min_thresh) {
    ++count_since_drop_;
    if (rng_.chance(drop_probability())) {
      count_since_drop_ = 0;
      drop(std::move(p), "RED", early_drops_);
      return false;
    }
  }
  if (protected_pkt) {
    q_.push_front(std::move(p));
  } else {
    q_.push_back(std::move(p));
  }
  metric(sim::Counter::kIfqEnqueued);
  metric_sample(sim::Gauge::kIfqDepth, static_cast<double>(q_.size()));
  return true;
}

std::optional<net::Packet> RedQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  net::Packet p = q_.pop_front();
  metric(sim::Counter::kIfqDequeued);
  return p;
}

const net::Packet* RedQueue::peek() const { return q_.empty() ? nullptr : &q_.front(); }

std::vector<net::Packet> RedQueue::remove_by_next_hop(net::NodeId next_hop) {
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

std::vector<net::Packet> RedQueue::flush_all() {
  std::vector<net::Packet> flushed;
  flushed.reserve(q_.size());
  while (!q_.empty()) flushed.push_back(q_.pop_front());
  metric(sim::Counter::kIfqFaultFlushed, flushed.size());
  return flushed;
}

void RedQueue::drop(net::Packet p, const char* reason, std::uint64_t& counter) {
  ++counter;
  metric(sim::Counter::kIfqDropped);
  if (&counter == &early_drops_) metric(sim::Counter::kIfqRedEarlyDrops);
  if (drop_cb_) drop_cb_(p, reason);
}

}  // namespace eblnet::queue
