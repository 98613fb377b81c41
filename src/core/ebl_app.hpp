#pragma once

#include <memory>
#include <vector>

#include "app/traffic.hpp"
#include "mobility/platoon.hpp"
#include "net/node.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace eblnet::core {

/// EBL traffic parameters.
struct EblConfig {
  /// Application payload per EBL message (the paper's variable parameter:
  /// 500 or 1000 bytes).
  std::size_t packet_bytes{1000};
  /// Offered CBR rate per follower link, bits/second. Calibrated so the
  /// two-link total (2.4 Mb/s) stays below 802.11's service capacity but
  /// far above TDMA's one-packet-per-frame service rate, which is what
  /// produces the paper's contrast between the two MACs.
  double cbr_rate_bps{1.2e6};
  /// TCP parameters for the EBL links (packet_size is overridden by
  /// `packet_bytes`). The calibrated 5-packet window bounds the standing
  /// queue when the MAC is the bottleneck: five packets in flight over a
  /// 64-slot TDMA frame yields the paper's ~1 s steady-state one-way
  /// delay. See bench/ablation_tcp_window for the delay-vs-window sweep.
  transport::TcpParams tcp = [] {
    transport::TcpParams p;
    p.max_window = 5.0;
    p.initial_ssthresh = 5.0;
    return p;
  }();
  /// Receiver-side options for the follower sinks (delayed ACKs etc.).
  transport::TcpSinkParams sink{};
};

/// One Extended-Brake-Lights stream: brake-status messages from the lead
/// vehicle to a single follower, carried as CBR over a TCP connection
/// (lead-side TcpSender fed by a TcpCbrFeeder, follower-side TcpSink).
class EblLink {
 public:
  EblLink(net::Env& env, net::Node& lead, net::Node& follower, net::Port lead_port,
          net::Port follower_port, const EblConfig& cfg);

  void start() { feeder_.start(); }
  /// Stop feeding and drop the unsent backlog, so a restart carries fresh
  /// brake status rather than stale messages.
  void stop() {
    feeder_.stop();
    sender_.truncate_backlog();
  }
  bool running() const noexcept { return feeder_.running(); }

  const transport::TcpSink& sink() const noexcept { return sink_; }
  /// Mutable access for composition (e.g. attaching an EblBrakeReactor).
  transport::TcpSink& mutable_sink() noexcept { return sink_; }
  const transport::TcpSender& sender() const noexcept { return sender_; }
  net::NodeId follower_id() const noexcept { return follower_.id(); }

 private:
  net::Node& follower_;
  transport::TcpSender sender_;
  app::TcpCbrFeeder feeder_;
  transport::TcpSink sink_;
};

/// The Extended Brake Lights application for a whole platoon: the lead
/// vehicle streams brake-status messages to every follower, and — per the
/// paper's rule — "communication between the vehicles occurs only when
/// the vehicles are braking or stopped". Follower i's stream leaves the
/// lead from `base_port + i` and arrives at `base_port + 100` on the
/// follower.
class PlatoonEbl {
 public:
  /// `nodes[i]` must be the network node of `platoon.vehicle(i)`.
  PlatoonEbl(net::Env& env, mobility::Platoon& platoon, const std::vector<net::Node*>& nodes,
             EblConfig cfg, net::Port base_port = 1000);

  // The sinks and the lead's state callback hold this object's address.
  PlatoonEbl(const PlatoonEbl&) = delete;
  PlatoonEbl& operator=(const PlatoonEbl&) = delete;

  bool communicating() const;

  /// Links in follower order: link(0) targets vehicle 1 (middle), etc.
  std::size_t link_count() const noexcept { return links_.size(); }
  const EblLink& link(std::size_t i) const { return *links_.at(i); }
  EblLink& mutable_link(std::size_t i) { return *links_.at(i); }

  /// Sum of every follower sink's byte counter — the quantity the
  /// platoon-level throughput monitor samples. Each sink adds to it as
  /// it counts, so sampling it walks no sink.
  std::uint64_t total_sink_bytes() const noexcept { return sink_bytes_; }

 private:
  std::vector<std::unique_ptr<EblLink>> links_;
  std::uint64_t sink_bytes_{0};
};

}  // namespace eblnet::core
