#include "mac/csma_mac.hpp"

#include <stdexcept>
#include <string>

namespace eblnet::mac {

CsmaMac::CsmaMac(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
                 std::unique_ptr<net::PacketQueue> ifq, const CsmaTiming& timing)
    : MacBase{env, address, phy, std::move(ifq)},
      response_timer_{env.scheduler(), [this] { response_expired(); }},
      timing_{timing},
      nav_timer_{env.scheduler(), [this] { medium_changed(); }},
      response_tx_timer_{env.scheduler(), [this] { send_scheduled_response(); }},
      post_tx_timer_{env.scheduler(), [this] { finish_frame(); }} {}

void CsmaMac::start(const char* mac) {
  // A zero slot divides by zero in the backoff countdown; a zero rate
  // gives a frame no airtime.
  const std::string name{mac};
  if (timing_.slot_time <= sim::Time::zero())
    throw std::invalid_argument{name + ": slot_time must be > 0"};
  if (!(timing_.data_rate_bps > 0.0))
    throw std::invalid_argument{name + ": data_rate_bps must be > 0"};
  if (!(timing_.basic_rate_bps > 0.0))
    throw std::invalid_argument{name + ": basic_rate_bps must be > 0"};
  phy_.set_rx_end_callback([this](net::Packet&& p, bool ok) { on_rx_end(std::move(p), ok); });
  phy_.set_carrier_callback([this](bool) { medium_changed(); });
}

// ---------------------------------------------------------------------------
// Transmit side
// ---------------------------------------------------------------------------

sim::Time CsmaMac::data_airtime(const net::Packet& p) const {
  const std::size_t bytes = p.size_bytes() + timing_.data_header_bytes;
  const bool broadcast = p.mac && p.mac->dst == net::kBroadcastAddress;
  // Broadcasts go at the basic rate so every receiver can decode them.
  const double rate = broadcast ? timing_.basic_rate_bps : timing_.data_rate_bps;
  return airtime(bytes, rate, timing_.plcp_overhead);
}

net::Packet CsmaMac::make_ctrl(net::PacketType type, net::NodeId dst, sim::Time duration) {
  net::Packet p;
  p.uid = env_.alloc_uid();
  p.type = type;
  p.created = env_.now();
  p.mac.emplace();
  p.mac->src = address_;
  p.mac->dst = dst;
  p.mac->duration = duration;
  return p;
}

net::Packet CsmaMac::data_copy(const net::Packet& frame, unsigned retries) {
  net::Packet copy = frame;
  copy.mac->retry = retries > 0;
  copy.mac->duration = copy.mac->dst != net::kBroadcastAddress
                           ? timing_.sifs + ctrl_airtime(timing_.ack_bytes)
                           : sim::Time::zero();
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kMac, address_, copy);
  ++tx_data_;
  env_.metrics().add(address_, sim::Counter::kMacTxData);
  if (retries > 0) {
    ++tx_retries_;
    env_.metrics().add(address_, sim::Counter::kMacRetries);
  }
  return copy;
}

void CsmaMac::send_data(const net::Packet& frame, unsigned retries) {
  const bool unicast = frame.mac->dst != net::kBroadcastAddress;
  const sim::Time air = data_airtime(frame);
  phy_.transmit(data_copy(frame, retries), air);
  if (unicast) {
    await_ack(air);
  } else {
    state_ = TxState::kBroadcast;
    post_tx_timer_.schedule_in(air);
  }
}

void CsmaMac::await_ack(sim::Time data_end) {
  state_ = TxState::kWaitAck;
  response_timer_.schedule_in(data_end + timing_.sifs + ctrl_airtime(timing_.ack_bytes) +
                              timing_.timeout_slack);
}

void CsmaMac::response_expired() {
  if (state_ == TxState::kWaitAck)
    env_.metrics().add(address_, sim::Counter::kMacAckTimeouts);
  net::Packet* frame = on_response_timeout();
  if (frame == nullptr) return;
  ++tx_drops_;
  env_.metrics().add(address_, sim::Counter::kMacRetryDrops);
  env_.trace(net::TraceAction::kDrop, net::TraceLayer::kMac, address_, *frame, "RET");
  const net::Packet failed = std::move(*frame);
  finish_frame();
  report_tx_fail(failed);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void CsmaMac::on_rx_end(net::Packet&& p, bool ok) {
  if (!ok) {
    on_rx_corrupt();
    return;
  }
  if (!p.mac) return;
  on_rx_clean();
  if (p.mac->dst == address_) {
    switch (p.type) {
      case net::PacketType::kMacAck:
        handle_ack();
        return;
      case net::PacketType::kMacRts:
      case net::PacketType::kMacCts:
        handle_rts_cts(p);
        return;
      default:
        handle_data(std::move(p));
        return;
    }
  }
  if (p.mac->dst == net::kBroadcastAddress) {
    if (!net::is_mac_control(p.type) && p.type != net::PacketType::kNoise) accept(std::move(p));
    return;
  }
  // Overheard frame destined elsewhere: honour its NAV reservation.
  if (p.mac->duration > sim::Time::zero()) update_nav(env_.now() + p.mac->duration);
}

void CsmaMac::handle_data(net::Packet&& p) {
  // ACK after SIFS, even for duplicates (the original ACK may have been lost).
  net::Packet ack = make_ctrl(net::PacketType::kMacAck, p.mac->src, sim::Time::zero());
  schedule_response(std::move(ack), ctrl_airtime(timing_.ack_bytes));
  if (seen_.seen_or_record(p.uid)) {
    ++rx_dups_;
    env_.metrics().add(address_, sim::Counter::kMacDuplicates);
    return;
  }
  accept(std::move(p));
}

void CsmaMac::accept(net::Packet&& p) {
  p.prev_hop = p.mac->src;
  env_.trace(net::TraceAction::kRecv, net::TraceLayer::kMac, address_, p);
  env_.metrics().add(address_, sim::Counter::kMacRxData);
  deliver_up(std::move(p));
}

void CsmaMac::handle_ack() {
  if (state_ != TxState::kWaitAck) return;
  response_timer_.cancel();
  finish_frame();
}

void CsmaMac::schedule_response(net::Packet p, sim::Time air) {
  pending_response_ = std::move(p);
  pending_response_airtime_ = air;
  response_tx_timer_.schedule_in(timing_.sifs);
}

void CsmaMac::send_scheduled_response() {
  if (!pending_response_) return;
  if (phy_.transmitting()) {
    // Extremely rare SIFS collision with our own transmission; drop the
    // response (the peer's timeout recovers).
    pending_response_.reset();
    return;
  }
  phy_.transmit(std::move(*pending_response_), pending_response_airtime_);
  pending_response_.reset();
}

void CsmaMac::update_nav(sim::Time until) {
  if (until <= nav_until_) return;
  nav_until_ = until;
  nav_timer_.schedule_at(until);
  medium_changed();
}

void CsmaMac::set_link_up(bool up) {
  if (up == link_up()) return;
  MacBase::set_link_up(up);  // drains the ifq with "FLT" traces
  if (up) return;            // a rebooted MAC is idle until the next enqueue/rx
  response_timer_.cancel();
  nav_timer_.cancel();
  response_tx_timer_.cancel();
  post_tx_timer_.cancel();
  pending_response_.reset();
  state_ = TxState::kIdle;
  nav_until_ = sim::Time{};
  stop_access();
}

}  // namespace eblnet::mac
