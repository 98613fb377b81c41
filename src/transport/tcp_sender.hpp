#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "net/node.hpp"
#include "sim/timer.hpp"

namespace eblnet::transport {

/// Congestion-control flavour: Tahoe restarts from slow start on any
/// loss signal; Reno adds fast recovery after a fast retransmit.
enum class TcpFlavor : std::uint8_t { kTahoe, kReno };

/// TCP parameters (packet-counted congestion control, NS-2 Agent/TCP
/// style: sequence numbers count packets, not bytes).
struct TcpParams {
  TcpFlavor flavor{TcpFlavor::kReno};
  std::size_t packet_size{1000};  ///< payload bytes per data packet
  double initial_window{1.0};
  double max_window{20.0};  ///< receiver window cap, in packets (NS-2 window_)
  double initial_ssthresh{20.0};
  unsigned dupack_threshold{3};
  sim::Time min_rto{sim::Time::milliseconds(500)};
  sim::Time max_rto{sim::Time::seconds(std::int64_t{60})};
  sim::Time initial_rto{sim::Time::seconds(std::int64_t{3})};
  unsigned max_backoff{64};
};

struct TcpStats {
  std::uint64_t data_sent{0};
  std::uint64_t retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t acks_received{0};
};

/// One-way TCP Reno sender: slow start, congestion avoidance, fast
/// retransmit/fast recovery, and Jacobson/Karels RTO with Karn's
/// algorithm and exponential backoff. The peer is a TcpSink, which
/// returns pure cumulative ACKs (there is no connection handshake or
/// teardown, matching the NS-2 one-way agents the paper used).
///
/// Applications feed the sender bytes with advance_bytes()/set_infinite();
/// the sender packetises them into `packet_size` payloads. A writer that
/// may owe bytes it has not handed over yet (app::TcpCbrFeeder, whose
/// ticks are muted while the window is shut) registers as the Source.
/// Every entry that can open the window or reads the backlog settles it
/// first: ACK receipt (duplicates included), the RTO handler, connect()
/// and truncate_backlog(). Settling only where send_much() runs is not
/// enough: Reno's fast retransmit and NewReno's partial ACK open the
/// window without calling it.
class TcpSender final : public net::PortHandler {
 public:
  /// A writer that can owe the sender data.
  class Source {
   public:
    /// Hand over everything owed. Called before the window can open, so
    /// the data only joins the backlog.
    virtual void settle() = 0;

   protected:
    ~Source() = default;
  };

  TcpSender(net::Node& node, net::Port local_port, TcpParams params = {});
  ~TcpSender() override;

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  void connect(net::NodeId dst, net::Port dport);

  /// Make `bytes` more application data available for transmission.
  void advance_bytes(std::size_t bytes);

  /// FTP mode: unlimited data (the sender is always backlogged).
  void set_infinite_data() { infinite_data_ = true; send_much(); }

  /// Discard application data that has not yet been packetised (already
  /// transmitted packets keep their retransmission semantics). The EBL
  /// application calls this when the platoon stops communicating: stale
  /// brake-status messages must not be delivered later.
  void truncate_backlog();

  void recv(net::Packet&& p) override;  ///< ACKs from the sink

  /// The one writer to settle (nullptr: none); it must detach before it
  /// is destroyed.
  void set_source(Source* source) noexcept { source_ = source; }

  /// True when the sender could transmit a new segment if it had the
  /// data: it has a peer and its window is open. While false, more data
  /// only grows the backlog.
  bool window_open() const {
    return peer_ != net::kBroadcastAddress &&
           t_seqno_ <= highest_ack_ + static_cast<std::int64_t>(effective_window());
  }

  // --- introspection ---
  net::Node& node() noexcept { return node_; }
  const TcpStats& stats() const noexcept { return stats_; }
  double cwnd() const noexcept { return cwnd_; }
  double ssthresh() const noexcept { return ssthresh_; }
  std::int64_t next_seq() const noexcept { return t_seqno_; }
  std::int64_t highest_ack() const noexcept { return highest_ack_; }
  sim::Time current_rto() const;
  const TcpParams& params() const noexcept { return params_; }

 private:
  void send_much();
  void send_packet(std::int64_t seq, bool is_retransmit);
  void on_new_ack(std::int64_t ack, sim::Time ts_echo);
  void on_dup_ack();
  void on_rto_timeout();
  void update_rtt(sim::Time sample);
  void restart_rto();
  double effective_window() const;
  std::int64_t app_seq_limit() const;
  void settle_source() {
    if (source_ != nullptr) source_->settle();
  }

  net::Node& node_;
  Source* source_{nullptr};
  net::Port local_port_;
  net::NodeId peer_{net::kBroadcastAddress};
  net::Port peer_port_{0};
  TcpParams params_;

  // congestion state
  double cwnd_;
  double ssthresh_;
  std::int64_t t_seqno_{0};      ///< next sequence number to transmit
  std::int64_t highest_ack_{-1};
  /// Highest seq outstanding when loss was last detected; initialised
  /// below any reachable ack so the first hole (ack = -1) can trigger.
  std::int64_t recover_{-2};
  bool in_fast_recovery_{false};
  unsigned dup_acks_{0};

  // RTT estimation
  bool rtt_valid_{false};
  double srtt_s_{0.0};
  double rttvar_s_{0.0};
  unsigned backoff_{1};

  // application data accounting
  bool infinite_data_{false};
  std::size_t available_bytes_{0};

  /// First-transmission time per outstanding seq: stamped into
  /// Packet::created so the sink-side one-way delay spans retransmissions,
  /// exactly as a trace-file analysis of the first send would.
  std::unordered_map<std::int64_t, sim::Time> first_send_;
  std::unordered_set<std::int64_t> retransmitted_;

  sim::Timer rto_timer_;
  TcpStats stats_;
};

}  // namespace eblnet::transport
