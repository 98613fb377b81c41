#pragma once

#include <unordered_map>
#include <vector>

#include "net/env.hpp"
#include "net/layers.hpp"
#include "sim/timer.hpp"

namespace eblnet::routing {

/// DSDV parameters (Perkins & Bhagwat '94, NS-2-flavoured defaults).
struct DsdvParams {
  /// Full-table broadcast period.
  sim::Time periodic_update_interval{sim::Time::seconds(std::int64_t{15})};
  /// Route considered stale when not refreshed for this long (covers a
  /// few missed periodic updates).
  sim::Time route_lifetime{sim::Time::seconds(std::int64_t{45})};
  /// Jitter applied to every update broadcast.
  sim::Time broadcast_jitter{sim::Time::milliseconds(10)};
  /// Minimum spacing between triggered (incremental) updates.
  sim::Time min_triggered_gap{sim::Time::milliseconds(200)};
};

struct DsdvStats {
  std::uint64_t periodic_updates_sent{0};
  std::uint64_t triggered_updates_sent{0};
  std::uint64_t updates_received{0};
  std::uint64_t routes_broken{0};
  std::uint64_t data_forwarded{0};
  std::uint64_t data_no_route_dropped{0};
};

/// Destination-Sequenced Distance Vector routing: every node proactively
/// maintains a route to every destination via periodic full-table dumps
/// and triggered updates, with per-destination sequence numbers (even =
/// alive, odd = broken) guaranteeing loop freedom.
///
/// Included as the proactive baseline to AODV: it pays constant control
/// overhead so that the first data packet needs no route discovery — the
/// opposite end of the trade-off the paper's initial-packet delay sits on.
///
/// Simplification vs the full protocol (documented): no weighted settling
/// time — improvements are advertised at the next update rather than
/// damped. With the paper's static-or-slow topologies this changes
/// nothing measurable.
class Dsdv final : public net::RoutingAgent {
 public:
  Dsdv(net::Env& env, net::NodeId self, DsdvParams params = {});

  void route_output(net::Packet p) override;
  void route_input(net::Packet&& p) override;
  void set_deliver_callback(DeliverCallback cb) override { deliver_ = std::move(cb); }
  void attach_mac(net::MacLayer* mac) override;

  // --- introspection ---
  struct Entry {
    net::NodeId next_hop{net::kBroadcastAddress};
    std::uint32_t seqno{0};
    std::uint16_t metric{kInfinity};
    sim::Time updated{};
  };
  static constexpr std::uint16_t kInfinity = 0xffff;

  const Entry* route(net::NodeId dst) const;
  bool has_route(net::NodeId dst) const;
  const DsdvStats& stats() const noexcept { return stats_; }
  net::NodeId self() const noexcept { return self_; }

 private:
  void forward_data(net::Packet p);
  void send_full_update();
  void send_triggered_update();
  void broadcast_update(bool full);
  void handle_update(const net::Packet& p);
  void on_tx_fail(const net::Packet& p);
  void mark_broken_via(net::NodeId next_hop);
  void on_periodic();

  net::Env& env_;
  net::NodeId self_;
  DsdvParams params_;
  net::MacLayer* mac_{nullptr};
  DeliverCallback deliver_;

  std::unordered_map<net::NodeId, Entry> table_;
  std::uint32_t own_seqno_{0};
  bool dirty_{false};
  sim::Scheduler::Lane periodic_lane_;  ///< steady-state re-arm of periodic_timer_
  sim::Time last_triggered_{};

  sim::Timer periodic_timer_;
  sim::Timer triggered_timer_;

  DsdvStats stats_;
};

}  // namespace eblnet::routing
