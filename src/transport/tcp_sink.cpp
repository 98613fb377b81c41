#include "transport/tcp_sink.hpp"

namespace eblnet::transport {

TcpSink::TcpSink(net::Node& node, net::Port local_port, TcpSinkParams params)
    : node_{node},
      local_port_{local_port},
      params_{params},
      delack_timer_{node.env().scheduler(), [this] { send_ack(); }} {
  node_.bind_port(local_port_, this);
}

TcpSink::~TcpSink() { node_.unbind_port(local_port_); }

void TcpSink::recv(net::Packet&& p) {
  if (!p.tcp) return;
  ++packets_received_;
  bytes_ += p.payload_bytes;
  if (bytes_total_ != nullptr) *bytes_total_ += p.payload_bytes;
  peer_ = p.ip->src;
  peer_port_ = p.tcp->sport;

  const std::int64_t seq = p.tcp->seq;
  const bool is_new = seq >= next_expected_ && !out_of_order_.contains(seq);
  bool in_order = false;
  if (is_new) {
    if (seq == next_expected_) {
      in_order = true;
      ++next_expected_;
      in_order_bytes_ += p.payload_bytes;
      // Absorb any buffered successors.
      while (!out_of_order_.empty() && out_of_order_.begin()->first == next_expected_) {
        in_order_bytes_ += out_of_order_.begin()->second;
        out_of_order_.erase(out_of_order_.begin());
        ++next_expected_;
      }
    } else {
      out_of_order_.emplace(seq, p.payload_bytes);
    }
    node_.env().trace(net::TraceAction::kRecv, net::TraceLayer::kAgent, node_.id(), p);
    node_.env().metrics().add(node_.id(), sim::Counter::kAppMessagesDelivered);
  } else {
    ++duplicates_;
  }

  on_data(p, in_order);
  if (is_new && data_cb_) data_cb_(p);
}

void TcpSink::on_data(const net::Packet& data, bool in_order) {
  pending_ts_ = data.tcp->ts;
  if (!params_.delayed_ack || !in_order || !out_of_order_.empty()) {
    // Immediate ACK: delayed ACKs are only for clean in-order progress;
    // gaps and duplicates must generate dupacks promptly.
    delack_timer_.cancel();
    ack_pending_ = false;
    send_ack();
    return;
  }
  if (ack_pending_) {
    // Second in-order segment: ACK now (RFC 1122's at-least-every-other).
    delack_timer_.cancel();
    ack_pending_ = false;
    send_ack();
  } else {
    ack_pending_ = true;
    delack_timer_.schedule_in(params_.ack_delay);
  }
}

void TcpSink::send_ack() {
  ack_pending_ = false;
  net::Packet ack;
  ack.uid = node_.env().alloc_uid();
  ack.type = net::PacketType::kTcpAck;
  ack.payload_bytes = 0;
  ack.created = node_.env().now();
  ack.app_seq = static_cast<std::uint64_t>(next_expected_ - 1);
  ack.ip.emplace();
  ack.ip->src = node_.id();
  ack.ip->dst = peer_;
  ack.tcp.emplace();
  ack.tcp->sport = local_port_;
  ack.tcp->dport = peer_port_;
  ack.tcp->seq = 0;
  ack.tcp->ack = next_expected_ - 1;
  ack.tcp->ts = pending_ts_;  // timestamp echo for the sender's RTT sample
  ++acks_sent_;
  node_.send(std::move(ack));
}

}  // namespace eblnet::transport
