#pragma once

#include "net/layers.hpp"
#include "queue/packet_ring.hpp"
#include "sim/rng.hpp"

namespace eblnet::queue {

/// RED parameters (Floyd & Jacobson '93, NS-2 flavoured defaults scaled
/// to a 50-packet interface queue; the capacity is the queue's
/// constructor argument).
struct RedParams {
  double min_thresh{5.0};
  double max_thresh{15.0};
  double max_p{0.02};       ///< drop probability at max_thresh
  double weight{0.002};     ///< EWMA weight for the average queue (w_q)
  /// Protect routing-control packets from early drops (they are also
  /// head-inserted, PriQueue style, since the paper's ifq does so).
  bool protect_routing{true};
};

/// Random Early Detection queue: probabilistically drops arrivals once
/// the *average* queue length crosses min_thresh, forcing TCP to back off
/// before the buffer overflows. The paper fixes drop-tail; RED is the
/// canonical counterfactual (see bench/ablation_queue).
///
/// Simplification vs full RED (documented): the idle-time average decay
/// uses the queue-empty arrival shortcut (avg is re-estimated from the
/// instantaneous size) rather than the m-packet idle extrapolation.
class RedQueue final : public net::PacketQueue {
 public:
  /// `capacity` is in packets, as for PriQueue (the scenario passes its
  /// `ifq_capacity`).
  explicit RedQueue(sim::Rng& rng, std::size_t capacity = 50, RedParams params = {});

  bool enqueue(net::Packet p) override;
  std::optional<net::Packet> dequeue() override;
  const net::Packet* peek() const override;
  std::vector<net::Packet> remove_by_next_hop(net::NodeId next_hop) override;
  std::vector<net::Packet> flush_all() override;
  std::size_t length() const override { return q_.size(); }
  std::uint64_t drop_count() const override { return forced_drops_ + early_drops_; }
  void set_drop_callback(DropCallback cb) override { drop_cb_ = std::move(cb); }

  double average_queue() const noexcept { return avg_; }
  std::uint64_t early_drops() const noexcept { return early_drops_; }
  std::uint64_t forced_drops() const noexcept { return forced_drops_; }
  std::size_t capacity() const noexcept { return q_.bound(); }
  const RedParams& params() const noexcept { return params_; }

 private:
  void drop(net::Packet p, const char* reason, std::uint64_t& counter);
  double drop_probability() const;

  sim::Rng& rng_;
  RedParams params_;
  PacketRing q_;
  double avg_{0.0};
  std::uint64_t count_since_drop_{0};  ///< packets since the last early drop
  std::uint64_t early_drops_{0};
  std::uint64_t forced_drops_{0};
  DropCallback drop_cb_;
};

}  // namespace eblnet::queue
