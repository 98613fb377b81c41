#pragma once

#include <functional>

#include "net/node.hpp"

namespace eblnet::transport {

/// Connectionless datagram agent bound to a local port (NS-2 Agent/UDP).
class UdpAgent final : public net::PortHandler {
 public:
  UdpAgent(net::Node& node, net::Port local_port);
  ~UdpAgent() override;

  UdpAgent(const UdpAgent&) = delete;
  UdpAgent& operator=(const UdpAgent&) = delete;

  /// Fix the remote endpoint for subsequent send() calls.
  void connect(net::NodeId dst, net::Port dport);

  /// Send one datagram of `payload_bytes`. Requires connect() first.
  void send(std::size_t payload_bytes);

  using RecvCallback = std::function<void(const net::Packet&)>;
  void set_recv_callback(RecvCallback cb) { recv_cb_ = std::move(cb); }

  void recv(net::Packet&& p) override;

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  std::uint64_t packets_received() const noexcept { return packets_received_; }
  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  net::Node& node_;
  net::Port local_port_;
  net::NodeId peer_{net::kBroadcastAddress};
  net::Port peer_port_{0};
  std::uint64_t next_seq_{0};
  RecvCallback recv_cb_;
  std::uint64_t packets_sent_{0};
  std::uint64_t packets_received_{0};
  std::uint64_t bytes_received_{0};
};

}  // namespace eblnet::transport
