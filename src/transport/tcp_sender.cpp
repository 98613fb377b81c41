#include "transport/tcp_sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eblnet::transport {

TcpSender::TcpSender(net::Node& node, net::Port local_port, TcpParams params)
    : node_{node},
      local_port_{local_port},
      params_{params},
      cwnd_{params.initial_window},
      ssthresh_{params.initial_ssthresh},
      rto_timer_{node.env().scheduler(), [this] { on_rto_timeout(); }} {
  if (params_.packet_size == 0) throw std::invalid_argument{"TcpSender: packet size must be > 0"};
  // The window truncates to whole packets: below 1 nothing is ever sent.
  if (!(params_.initial_window >= 1.0))
    throw std::invalid_argument{"TcpSender: initial_window must be >= 1"};
  if (!(params_.max_window >= 1.0))
    throw std::invalid_argument{"TcpSender: max_window must be >= 1"};
  if (params_.min_rto <= sim::Time::zero())
    throw std::invalid_argument{"TcpSender: min_rto must be > 0"};
  // current_rto() clamps into [min_rto, max_rto], which must not be empty.
  if (params_.min_rto > params_.max_rto)
    throw std::invalid_argument{"TcpSender: min_rto must be <= max_rto"};
  // A zero cap turns the first doubled backoff into a zero RTO that
  // re-arms at now() forever.
  if (params_.max_backoff == 0)
    throw std::invalid_argument{"TcpSender: max_backoff must be >= 1"};
  node_.bind_port(local_port_, this);
}

TcpSender::~TcpSender() { node_.unbind_port(local_port_); }

void TcpSender::connect(net::NodeId dst, net::Port dport) {
  settle_source();
  peer_ = dst;
  peer_port_ = dport;
  send_much();  // data written before the peer was known leaves now
}

void TcpSender::advance_bytes(std::size_t bytes) {
  available_bytes_ += bytes;
  send_much();
}

void TcpSender::truncate_backlog() {
  settle_source();
  if (infinite_data_) {
    infinite_data_ = false;
    available_bytes_ = 0;
  }
  const std::size_t packetised = static_cast<std::size_t>(t_seqno_) * params_.packet_size;
  if (available_bytes_ > packetised) available_bytes_ = packetised;
}

double TcpSender::effective_window() const { return std::min(cwnd_, params_.max_window); }

std::int64_t TcpSender::app_seq_limit() const {
  if (infinite_data_) return INT64_MAX;
  return static_cast<std::int64_t>(available_bytes_ / params_.packet_size);
}

void TcpSender::send_much() {
  if (peer_ == net::kBroadcastAddress) return;
  const std::int64_t win = static_cast<std::int64_t>(effective_window());
  const std::int64_t limit = app_seq_limit();
  while (t_seqno_ <= highest_ack_ + win && t_seqno_ < limit) {
    send_packet(t_seqno_, /*is_retransmit=*/false);
    ++t_seqno_;
  }
}

void TcpSender::send_packet(std::int64_t seq, bool is_retransmit) {
  net::Packet p;
  p.uid = node_.env().alloc_uid();
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = params_.packet_size;
  p.app_seq = static_cast<std::uint64_t>(seq);
  p.ip.emplace();
  p.ip->src = node_.id();
  p.ip->dst = peer_;
  p.tcp.emplace();
  p.tcp->sport = local_port_;
  p.tcp->dport = peer_port_;
  p.tcp->seq = seq;
  p.tcp->ts = node_.env().now();

  const auto [it, inserted] = first_send_.try_emplace(seq, node_.env().now());
  p.created = it->second;

  ++stats_.data_sent;
  node_.env().metrics().add(node_.id(), sim::Counter::kTcpDataSent);
  if (is_retransmit) {
    ++stats_.retransmits;
    node_.env().metrics().add(node_.id(), sim::Counter::kTcpRetransmits);
    retransmitted_.insert(seq);
  } else {
    // Only first transmissions are traced as agent-level sends: the
    // one-way-delay analysis pairs the first send with the first receive.
    node_.env().trace(net::TraceAction::kSend, net::TraceLayer::kAgent, node_.id(), p);
  }
  if (!rto_timer_.pending()) restart_rto();
  node_.send(std::move(p));
}

void TcpSender::recv(net::Packet&& p) {
  settle_source();
  if (!p.tcp) return;
  ++stats_.acks_received;
  node_.env().metrics().add(node_.id(), sim::Counter::kTcpAcksReceived);
  const std::int64_t ack = p.tcp->ack;
  if (ack > highest_ack_) {
    on_new_ack(ack, p.tcp->ts);
  } else {
    on_dup_ack();
  }
  node_.env().metrics().sample(node_.id(), sim::Gauge::kTcpCwnd, cwnd_);
}

void TcpSender::on_new_ack(std::int64_t ack, sim::Time ts_echo) {
  // Karn's algorithm: no RTT sample from a retransmitted segment.
  if (!retransmitted_.contains(ack) && ts_echo > sim::Time::zero()) {
    update_rtt(node_.env().now() - ts_echo);
    backoff_ = 1;
  }

  for (std::int64_t s = highest_ack_ + 1; s <= ack; ++s) {
    first_send_.erase(s);
    retransmitted_.erase(s);
  }
  highest_ack_ = ack;
  if (t_seqno_ < highest_ack_ + 1) t_seqno_ = highest_ack_ + 1;
  dup_acks_ = 0;

  if (in_fast_recovery_) {
    if (ack >= recover_) {
      // Full recovery: deflate to ssthresh and resume normal growth.
      in_fast_recovery_ = false;
      cwnd_ = ssthresh_;
    } else {
      // Partial ACK (NewReno flavour): retransmit the next hole.
      send_packet(highest_ack_ + 1, /*is_retransmit=*/true);
      restart_rto();
      return;
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;  // slow start
  } else {
    cwnd_ += 1.0 / cwnd_;  // congestion avoidance
  }

  restart_rto();
  send_much();
}

void TcpSender::on_dup_ack() {
  if (in_fast_recovery_) {
    cwnd_ += 1.0;  // window inflation per extra dupack
    send_much();
    return;
  }
  ++dup_acks_;
  if (dup_acks_ < params_.dupack_threshold) return;
  if (highest_ack_ <= recover_) return;  // already recovering this hole
  // Fast retransmit.
  ++stats_.fast_retransmits;
  node_.env().metrics().add(node_.id(), sim::Counter::kTcpFastRetransmits);
  recover_ = t_seqno_ - 1;
  ssthresh_ = std::max(effective_window() / 2.0, 2.0);
  if (params_.flavor == TcpFlavor::kReno) {
    cwnd_ = ssthresh_ + static_cast<double>(params_.dupack_threshold);
    in_fast_recovery_ = true;
  } else {
    // Tahoe: any loss signal restarts from a one-packet window.
    cwnd_ = 1.0;
    dup_acks_ = 0;
    t_seqno_ = highest_ack_ + 2;  // the retransmit below re-fills seq+1
  }
  send_packet(highest_ack_ + 1, /*is_retransmit=*/true);
  restart_rto();
}

void TcpSender::on_rto_timeout() {
  settle_source();
  if (t_seqno_ <= highest_ack_ + 1 && !in_fast_recovery_) return;  // nothing outstanding
  ++stats_.timeouts;
  node_.env().metrics().add(node_.id(), sim::Counter::kTcpRtoFirings);
  ssthresh_ = std::max(effective_window() / 2.0, 2.0);
  cwnd_ = 1.0;
  backoff_ = std::min(backoff_ * 2, params_.max_backoff);
  in_fast_recovery_ = false;
  dup_acks_ = 0;
  // Go-back-N: rewind and retransmit from the first unacknowledged packet.
  t_seqno_ = highest_ack_ + 1;
  send_packet(t_seqno_, /*is_retransmit=*/true);
  ++t_seqno_;
  restart_rto();
}

void TcpSender::update_rtt(sim::Time sample) {
  const double s = sample.to_seconds();
  if (!rtt_valid_) {
    srtt_s_ = s;
    rttvar_s_ = s / 2.0;
    rtt_valid_ = true;
    return;
  }
  const double err = s - srtt_s_;
  srtt_s_ += 0.125 * err;
  rttvar_s_ += 0.25 * (std::abs(err) - rttvar_s_);
}

sim::Time TcpSender::current_rto() const {
  sim::Time base = params_.initial_rto;
  if (rtt_valid_) base = sim::Time::seconds(srtt_s_ + 4.0 * rttvar_s_);
  base = std::clamp(base, params_.min_rto, params_.max_rto);
  return base * static_cast<std::int64_t>(backoff_);
}

void TcpSender::restart_rto() { rto_timer_.schedule_in(current_rto()); }

}  // namespace eblnet::transport
