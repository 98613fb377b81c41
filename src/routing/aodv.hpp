#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "net/env.hpp"
#include "net/layers.hpp"
#include "routing/routing_table.hpp"
#include "sim/timer.hpp"

namespace eblnet::routing {

/// AODV protocol constants (RFC 3561 defaults, NS-2-flavoured where the
/// paper's tool deviates).
struct AodvParams {
  sim::Time active_route_timeout{sim::Time::seconds(std::int64_t{10})};
  sim::Time my_route_timeout{sim::Time::seconds(std::int64_t{10})};
  sim::Time node_traversal_time{sim::Time::milliseconds(40)};
  unsigned net_diameter{16};
  unsigned rreq_retries{2};
  /// Expanding-ring search schedule.
  unsigned ttl_start{2};
  unsigned ttl_increment{2};
  unsigned ttl_threshold{7};
  /// HELLO neighbour sensing (only active when the MAC cannot report
  /// link failures, e.g. TDMA).
  sim::Time hello_interval{sim::Time::seconds(std::int64_t{1})};
  unsigned allowed_hello_loss{3};
  /// Whether a received HELLO may *create* a (1-hop) route. RFC 3561 uses
  /// HELLOs for connectivity maintenance of active routes; NS-2's AODV
  /// also instantiates neighbour routes from them. Off by default so that
  /// route discovery is exercised (and its latency measured) even in
  /// HELLO mode.
  bool hello_installs_routes{false};
  /// Send-buffer for packets awaiting route discovery.
  std::size_t buffer_capacity{64};
  sim::Time buffer_timeout{sim::Time::seconds(std::int64_t{30})};
  /// Random delay applied to rebroadcasts/HELLOs to de-synchronise nodes.
  sim::Time broadcast_jitter{sim::Time::milliseconds(10)};
  /// How long a seen (origin, bcast id) pair suppresses duplicates.
  sim::Time bcast_id_save{sim::Time::seconds(std::int64_t{6})};

  sim::Time net_traversal_time() const {
    return node_traversal_time * static_cast<std::int64_t>(2 * net_diameter);
  }
  sim::Time ring_traversal_time(unsigned ttl) const {
    return node_traversal_time * static_cast<std::int64_t>(2 * ttl);
  }
};

/// Counters exposed for tests and benches.
struct AodvStats {
  std::uint64_t rreq_sent{0};
  std::uint64_t rreq_forwarded{0};
  std::uint64_t rrep_sent{0};
  std::uint64_t rrep_forwarded{0};
  std::uint64_t rerr_sent{0};
  std::uint64_t hello_sent{0};
  std::uint64_t discoveries_started{0};
  std::uint64_t discoveries_failed{0};
  std::uint64_t data_forwarded{0};
  std::uint64_t data_no_route_dropped{0};
  std::uint64_t link_failures{0};
};

/// Ad hoc On-demand Distance Vector routing (RFC 3561): on-demand RREQ
/// flooding with expanding-ring search, destination sequence numbers,
/// RREP unicasting with precursor lists, RERR propagation on link
/// failure, send-buffering during discovery, and — when the MAC offers no
/// link-layer failure detection — HELLO-based neighbour liveness.
class Aodv final : public net::RoutingAgent {
 public:
  Aodv(net::Env& env, net::NodeId self, AodvParams params = {});

  void route_output(net::Packet p) override;
  void route_input(net::Packet&& p) override;
  void set_deliver_callback(DeliverCallback cb) override { deliver_ = std::move(cb); }
  void attach_mac(net::MacLayer* mac) override;
  void set_node_up(bool up) override;

  // --- introspection ---
  const AodvStats& stats() const noexcept { return stats_; }
  bool has_valid_route(net::NodeId dst) { return table_.lookup_valid(dst, env_.now()) != nullptr; }
  const RouteEntry* route(net::NodeId dst) const { return table_.find(dst); }
  RoutingTable& table() noexcept { return table_; }
  net::NodeId self() const noexcept { return self_; }
  bool hello_active() const noexcept { return hello_timer_.pending(); }
  /// True while the purge timer is muted (see purge_timer_).
  bool purge_muted() const { return purge_timer_.muted(); }

 private:
  // --- data plane ---
  void forward_data(net::Packet p);
  void send_via(net::Packet p, net::NodeId next_hop);
  void buffer_and_discover(net::Packet p);
  void flush_buffer(net::NodeId dst);
  void drop_buffered(net::NodeId dst, const char* reason);

  // --- discovery ---
  struct Discovery {
    unsigned retries{0};
    unsigned ttl{0};
    sim::Time started{};  ///< for the route-acquisition-latency gauge
    sim::Timer timer;
    Discovery(sim::Scheduler& s, sim::Timer::Callback cb) : timer{s, std::move(cb)} {}
  };
  void start_discovery(net::NodeId dst);
  void send_rreq(net::NodeId dst, unsigned ttl);
  void on_discovery_timeout(net::NodeId dst);

  // --- control-plane handlers ---
  void handle_rreq(net::Packet p);
  void handle_rrep(net::Packet p);
  void handle_rerr(const net::Packet& p);
  void handle_hello(const net::Packet& p);

  // --- link failure ---
  void on_tx_fail(const net::Packet& p);
  void handle_link_failure(net::NodeId next_hop);
  void send_rerr(const std::vector<net::AodvRerrHeader::Unreachable>& list);

  // --- hello / neighbours ---
  void start_hello();
  void on_hello_tick();
  void note_neighbor(net::NodeId neighbor);

  // --- misc helpers ---
  net::Packet make_control(net::PacketType type, net::NodeId ip_dst, std::uint8_t ttl);
  void broadcast_jittered(net::Packet p);
  void refresh_route(net::NodeId dst);
  void update_neighbor_route(net::NodeId neighbor);
  bool rreq_seen(net::NodeId origin, std::uint32_t bcast_id);
  void on_purge_tick();

  net::Env& env_;
  net::NodeId self_;
  AodvParams params_;
  net::MacLayer* mac_{nullptr};
  DeliverCallback deliver_;

  RoutingTable table_;
  std::uint32_t seqno_{0};
  std::uint32_t rreq_id_{0};

  /// Duplicate-RREQ cache: (origin, id) -> expiry.
  std::unordered_map<std::uint64_t, sim::Time> rreq_cache_;

  struct Buffered {
    net::Packet packet;
    sim::Time queued_at;
  };
  std::unordered_map<net::NodeId, std::deque<Buffered>> buffer_;
  std::unordered_map<net::NodeId, std::unique_ptr<Discovery>> discoveries_;

  /// Neighbour liveness for HELLO mode: last time we heard the node.
  std::unordered_map<net::NodeId, sim::Time> neighbors_;

  sim::Timer hello_timer_;
  /// Expires routes, RREQ-cache entries and buffered packets every
  /// 500 ms. on_purge_tick mutes it while no entry is valid and the cache
  /// and buffer are empty, when a tick would do nothing; every site that
  /// sets an entry valid or inserts into either container unmutes it.
  /// Muted ticks did nothing, so there is nothing to fold in.
  sim::Timer purge_timer_;

  /// Resilience accounting: the next completed discovery after a link
  /// failure samples Gauge::kAodvRerouteSeconds (failure -> replacement
  /// route installed).
  bool reroute_pending_{false};
  /// Lanes of the two periodic timers: every purge_timer_ arm, and
  /// hello_timer_'s steady-state re-arm (looked up when HELLO starts).
  sim::Scheduler::Lane purge_lane_;
  sim::Scheduler::Lane hello_lane_;
  sim::Time link_failed_at_{};
  void note_discovery_completed();

  AodvStats stats_;
};

}  // namespace eblnet::routing
