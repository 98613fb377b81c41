#pragma once

#include <functional>
#include <map>

#include "net/node.hpp"
#include "sim/timer.hpp"

namespace eblnet::transport {

/// Receiver-side options (NS-2 Agent/TCPSink vs Agent/TCPSink/DelAck).
struct TcpSinkParams {
  /// RFC 1122 delayed ACK: acknowledge every second in-order segment, or
  /// after `ack_delay`, whichever comes first. Out-of-order segments are
  /// always acknowledged immediately (they carry loss information).
  bool delayed_ack{false};
  sim::Time ack_delay{sim::Time::milliseconds(200)};
};

/// One-way TCP receiver (NS-2 Agent/TCPSink): acknowledges data with the
/// highest in-order sequence number, echoes the data packet's timestamp
/// for RTT estimation, and accumulates the received byte count — the
/// `bytes_` variable the paper's Tcl `record` procedure samples for its
/// throughput figures.
class TcpSink final : public net::PortHandler {
 public:
  TcpSink(net::Node& node, net::Port local_port, TcpSinkParams params = {});
  ~TcpSink() override;

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  void recv(net::Packet&& p) override;

  /// Total payload bytes received (including duplicates, as in NS-2).
  std::uint64_t bytes() const noexcept { return bytes_; }

  /// Also add every byte `bytes()` counts to `*total`, a running sum
  /// over several sinks; `total` must outlive the sink.
  void add_bytes_to(std::uint64_t* total) noexcept { bytes_total_ = total; }

  /// Payload bytes delivered in order, without duplicates.
  std::uint64_t in_order_bytes() const noexcept { return in_order_bytes_; }

  /// Highest in-order sequence received (-1 = none yet).
  std::int64_t expected_minus_one() const noexcept { return next_expected_ - 1; }

  std::uint64_t packets_received() const noexcept { return packets_received_; }
  std::uint64_t duplicates() const noexcept { return duplicates_; }
  std::uint64_t acks_sent() const noexcept { return acks_sent_; }

  /// Called for every *new* data packet, after internal accounting; used
  /// by delay monitors. The packet still carries its original `created`
  /// timestamp, so `env.now() - p.created` is the one-way delay.
  using DataCallback = std::function<void(const net::Packet&)>;
  void set_data_callback(DataCallback cb) { data_cb_ = std::move(cb); }

 private:
  void send_ack();
  void on_data(const net::Packet& data, bool in_order);

  net::Node& node_;
  net::Port local_port_;
  TcpSinkParams params_;
  std::int64_t next_expected_{0};
  std::map<std::int64_t, std::size_t> out_of_order_;  ///< seq -> payload bytes
  std::uint64_t bytes_{0};
  std::uint64_t* bytes_total_{nullptr};
  std::uint64_t in_order_bytes_{0};
  std::uint64_t packets_received_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t acks_sent_{0};

  // delayed-ACK state
  bool ack_pending_{false};
  sim::Time pending_ts_{};  ///< timestamp echo for the deferred ACK
  net::NodeId peer_{net::kBroadcastAddress};
  net::Port peer_port_{0};
  sim::Timer delack_timer_;

  DataCallback data_cb_;
};

}  // namespace eblnet::transport
