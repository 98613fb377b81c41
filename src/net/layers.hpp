#pragma once

#include <functional>
#include <optional>

#include "net/packet.hpp"
#include "sim/metrics.hpp"

namespace eblnet::net {

/// Interface queue between the routing layer and the MAC (NS-2's `ifq`).
/// Implementations: queue::DropTailQueue, queue::PriQueue.
class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  /// Returns false when the packet was dropped (queue full); the drop
  /// callback has then already been invoked.
  virtual bool enqueue(Packet p) = 0;

  virtual std::optional<Packet> dequeue() = 0;
  virtual const Packet* peek() const = 0;

  /// Remove every queued packet whose MAC destination equals `next_hop`
  /// (used by AODV after a link failure). Returns the removed packets.
  virtual std::vector<Packet> remove_by_next_hop(NodeId next_hop) = 0;

  /// Drain the entire queue (injected node crash). The drained packets
  /// are counted under Counter::kIfqFaultFlushed — distinct from drops
  /// and routing removals — and returned so the MAC can trace them.
  virtual std::vector<Packet> flush_all() = 0;

  virtual std::size_t length() const = 0;
  virtual std::uint64_t drop_count() const = 0;
  bool empty() const { return length() == 0; }

  using DropCallback = std::function<void(const Packet&, const char* reason)>;
  virtual void set_drop_callback(DropCallback cb) = 0;

  /// Point the queue at a metrics registry, scoped to `node` (done by
  /// MacBase when it adopts the queue). Null detaches.
  void bind_metrics(sim::MetricsRegistry* m, NodeId node) noexcept {
    metrics_ = m;
    metrics_node_ = node;
  }

 protected:
  /// Counter bump for implementations; a no-op branch until bound.
  void metric(sim::Counter c, std::uint64_t delta = 1) noexcept {
    if (metrics_ != nullptr) metrics_->add(metrics_node_, c, delta);
  }
  void metric_sample(sim::Gauge g, double v) noexcept {
    if (metrics_ != nullptr) metrics_->sample(metrics_node_, g, v);
  }

 private:
  sim::MetricsRegistry* metrics_{nullptr};
  NodeId metrics_node_{0};
};

/// Link layer seen from above. Implementations: mac::Mac80211 and mac::Edca
/// (over the shared mac::CsmaMac frame exchange), mac::MacTdma, and
/// mac::ArpLayer, which wraps another MAC.
///
/// The MAC owns its interface queue; `enqueue` is the single entry point
/// for outgoing traffic (the packet's MacHeader.dst selects unicast
/// next-hop or broadcast). Delivery upward goes through the rx callback;
/// unicast transmit failure (retry limit) through the tx-fail callback,
/// which AODV uses for link-layer failure detection.
class MacLayer {
 public:
  virtual ~MacLayer() = default;

  virtual void enqueue(Packet p) = 0;

  /// Frames handed up by rvalue reference: a receiver that keeps one
  /// moves it into its own storage.
  using RxCallback = std::function<void(Packet&&)>;
  virtual void set_rx_callback(RxCallback cb) = 0;

  using TxFailCallback = std::function<void(const Packet&)>;
  virtual void set_tx_fail_callback(TxFailCallback cb) = 0;

  virtual NodeId address() const = 0;

  /// True when this MAC reports unicast delivery failures via the
  /// tx-fail callback (802.11 does; TDMA has no ACKs, so AODV must run
  /// HELLO-based neighbour detection instead).
  virtual bool detects_link_failures() const = 0;

  /// Flush queued data packets destined to `next_hop` (route broke).
  virtual std::vector<Packet> flush_next_hop(NodeId next_hop) = 0;

  /// Injected node crash (`up == false`): cancel pending MAC timers,
  /// reset protocol state and flush the interface queue; `up == true`
  /// restarts the MAC from a cold state (reboot). Default: ignore.
  virtual void set_link_up(bool up) { (void)up; }

  /// The interface queue feeding this MAC, when it has one (decorators
  /// forward to the wrapped MAC). Used by the metrics snapshot to account
  /// for packets still queued at the end of a run.
  virtual const PacketQueue* interface_queue() const noexcept { return nullptr; }
};

/// Network layer. Implementations: routing::Aodv, routing::StaticRouting.
class RoutingAgent {
 public:
  virtual ~RoutingAgent() = default;

  /// Packet originating at this node (IP header already set).
  virtual void route_output(Packet p) = 0;

  /// Packet handed up by the MAC (may be forwarded or delivered locally).
  virtual void route_input(Packet&& p) = 0;

  using DeliverCallback = std::function<void(Packet&&)>;
  virtual void set_deliver_callback(DeliverCallback cb) = 0;

  virtual void attach_mac(MacLayer* mac) = 0;

  /// Injected node crash/reboot. Down: forget every route, neighbour and
  /// buffered packet (a rebooted router must re-discover, per the fault
  /// model). Up: restart periodic behaviour (e.g. HELLO). Default: ignore.
  virtual void set_node_up(bool up) { (void)up; }
};

/// A transport endpoint bound to a port (NS-2 "agent").
class PortHandler {
 public:
  virtual ~PortHandler() = default;
  virtual void recv(Packet&& p) = 0;
};

}  // namespace eblnet::net
