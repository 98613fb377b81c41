#include "mac/mac_80211.hpp"

#include <algorithm>
#include <stdexcept>

namespace eblnet::mac {

Mac80211::Mac80211(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
                   std::unique_ptr<net::PacketQueue> ifq, Mac80211Params params)
    : MacBase{env, address, phy, std::move(ifq)},
      params_{params},
      cw_{params.cw_min},
      difs_timer_{env.scheduler(), [this] { on_difs_complete(); }},
      backoff_timer_{env.scheduler(), [this] { on_backoff_complete(); }},
      response_timer_{env.scheduler(), [this] { on_response_timeout(); }},
      nav_timer_{env.scheduler(), [this] { medium_changed(); }},
      response_tx_timer_{env.scheduler(), [this] { send_scheduled_response(); }},
      post_tx_timer_{env.scheduler(), [this] { on_data_tx_end(); }} {
  // A zero slot divides by zero in pause_backoff; a zero rate gives a
  // frame no airtime.
  if (params_.slot_time <= sim::Time::zero())
    throw std::invalid_argument{"Mac80211: slot_time must be > 0"};
  if (!(params_.data_rate_bps > 0.0))
    throw std::invalid_argument{"Mac80211: data_rate_bps must be > 0"};
  if (!(params_.basic_rate_bps > 0.0))
    throw std::invalid_argument{"Mac80211: basic_rate_bps must be > 0"};
  phy_.set_rx_end_callback([this](net::Packet p, bool ok) { on_rx_end(std::move(p), ok); });
  phy_.set_carrier_callback([this](bool) { medium_changed(); });
}

// ---------------------------------------------------------------------------
// Upper-layer entry
// ---------------------------------------------------------------------------

void Mac80211::enqueue(net::Packet p) {
  if (!p.mac) p.mac.emplace();
  p.mac->src = address_;
  ifq_->enqueue(std::move(p));
  try_dequeue();
}

void Mac80211::try_dequeue() {
  if (state_ != TxState::kIdle || tx_frame_) return;
  auto next = ifq_->dequeue();
  if (!next) return;
  tx_frame_ = std::move(*next);
  state_ = TxState::kAccess;
  retries_ = 0;
  cts_received_ = false;
  start_access();
}

// ---------------------------------------------------------------------------
// Medium access engine (DIFS + backoff with pause/resume)
// ---------------------------------------------------------------------------

bool Mac80211::medium_busy() const {
  return phy_.carrier_busy() || env_.now() < nav_until_;
}

void Mac80211::medium_changed() {
  const bool busy = medium_busy();
  if (busy == medium_was_busy_) return;
  medium_was_busy_ = busy;
  if (busy) {
    difs_timer_.cancel();
    pause_backoff();
  } else {
    idle_since_ = env_.now();
    if (tx_frame_ || pending_backoff_slots_ > 0) difs_timer_.schedule_at(access_deadline());
  }
}

sim::Time Mac80211::access_deadline() const {
  // Idle-for-DIFS, extended to the EIFS deadline after a corrupted frame.
  return std::max(idle_since_ + params_.difs, eifs_until_);
}

void Mac80211::start_access() {
  if (engine_active()) return;
  if (medium_busy()) {
    if (pending_backoff_slots_ < 0) draw_backoff();
    return;  // medium_changed() resumes us on the busy->idle edge
  }
  const sim::Time deadline = access_deadline();
  if (env_.now() >= deadline) {
    on_difs_complete();
  } else {
    difs_timer_.schedule_at(deadline);
  }
}

void Mac80211::on_difs_complete() {
  if (pending_backoff_slots_ > 0) {
    begin_countdown();
  } else {
    access_granted();
  }
}

void Mac80211::begin_countdown() {
  backoff_anchor_ = env_.now();
  backoff_timer_.schedule_in(params_.slot_time * static_cast<std::int64_t>(pending_backoff_slots_));
}

void Mac80211::pause_backoff() {
  if (!backoff_timer_.pending()) return;
  backoff_timer_.cancel();
  const auto consumed =
      static_cast<int>((env_.now() - backoff_anchor_) / params_.slot_time);
  pending_backoff_slots_ = std::max(0, pending_backoff_slots_ - consumed);
}

void Mac80211::on_backoff_complete() {
  pending_backoff_slots_ = -1;
  access_granted();
}

void Mac80211::access_granted() {
  pending_backoff_slots_ = -1;
  if (tx_frame_ && state_ == TxState::kAccess) transmit_current();
}

void Mac80211::draw_backoff() {
  pending_backoff_slots_ =
      static_cast<int>(env_.rng().uniform_int(static_cast<std::uint64_t>(cw_) + 1));
  env_.metrics().add(address_, sim::Counter::kMacBackoffSlots,
                     static_cast<std::uint64_t>(pending_backoff_slots_));
}

// ---------------------------------------------------------------------------
// Transmit side
// ---------------------------------------------------------------------------

sim::Time Mac80211::data_airtime(const net::Packet& p) const {
  const std::size_t bytes = p.size_bytes() + params_.data_header_bytes;
  const bool broadcast = p.mac && p.mac->dst == net::kBroadcastAddress;
  // Broadcasts go at the basic rate so every receiver can decode them.
  const double rate = broadcast ? params_.basic_rate_bps : params_.data_rate_bps;
  return airtime(bytes, rate, params_.plcp_overhead);
}

sim::Time Mac80211::ctrl_airtime(std::size_t bytes) const {
  return airtime(bytes, params_.basic_rate_bps, params_.plcp_overhead);
}

net::Packet Mac80211::make_ctrl(net::PacketType type, net::NodeId dst, sim::Time duration) {
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

bool Mac80211::use_rts_for_current() const {
  return tx_frame_->mac->dst != net::kBroadcastAddress &&
         tx_frame_->size_bytes() >= params_.rts_threshold;
}

unsigned Mac80211::retry_limit_for_current() const {
  return use_rts_for_current() ? params_.long_retry_limit : params_.short_retry_limit;
}

void Mac80211::transmit_current() {
  if (phy_.transmitting() || phy_.receiving()) {
    // Lost the race with an incoming frame; contend again.
    if (pending_backoff_slots_ < 0) draw_backoff();
    return;
  }
  if (use_rts_for_current() && !cts_received_) {
    const sim::Time rts_air = ctrl_airtime(params_.rts_bytes);
    const sim::Time cts_air = ctrl_airtime(params_.cts_bytes);
    const sim::Time ack_air = ctrl_airtime(params_.ack_bytes);
    // NAV covers CTS + DATA + ACK and the three SIFS gaps between them.
    const sim::Time nav =
        cts_air + data_airtime(*tx_frame_) + ack_air + params_.sifs * std::int64_t{3};
    net::Packet rts = make_ctrl(net::PacketType::kMacRts, tx_frame_->mac->dst, nav);
    env_.metrics().add(address_, sim::Counter::kMacRtsSent);
    phy_.transmit(std::move(rts), rts_air);
    state_ = TxState::kWaitCts;
    response_timer_.schedule_in(rts_air + params_.sifs + cts_air + params_.timeout_slack);
    return;
  }
  send_data_frame();
}

void Mac80211::send_data_frame() {
  const bool unicast = tx_frame_->mac->dst != net::kBroadcastAddress;
  const sim::Time air = data_airtime(*tx_frame_);
  net::Packet copy = *tx_frame_;
  copy.mac->retry = retries_ > 0;
  const sim::Time ack_air = ctrl_airtime(params_.ack_bytes);
  copy.mac->duration = unicast ? params_.sifs + ack_air : sim::Time::zero();
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kMac, address_, copy);
  ++tx_data_;
  env_.metrics().add(address_, sim::Counter::kMacTxData);
  if (retries_ > 0) {
    ++tx_retries_;
    env_.metrics().add(address_, sim::Counter::kMacRetries);
  }
  phy_.transmit(std::move(copy), air);
  if (unicast) {
    state_ = TxState::kWaitAck;
    response_timer_.schedule_in(air + params_.sifs + ack_air + params_.timeout_slack);
  } else {
    post_tx_timer_.schedule_in(air);
  }
}

void Mac80211::on_data_tx_end() {
  // Broadcast frames complete unconditionally (no ACK in 802.11).
  finish_frame();
}

void Mac80211::on_response_timeout() {
  if (state_ == TxState::kWaitAck)
    env_.metrics().add(address_, sim::Counter::kMacAckTimeouts);
  ++retries_;
  cw_ = std::min(cw_ * 2 + 1, params_.cw_max);
  if (retries_ > retry_limit_for_current()) {
    ++tx_drops_;
    env_.metrics().add(address_, sim::Counter::kMacRetryDrops);
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kMac, address_, *tx_frame_, "RET");
    const net::Packet failed = std::move(*tx_frame_);
    finish_frame();
    report_tx_fail(failed);
    return;
  }
  state_ = TxState::kAccess;
  cts_received_ = false;
  draw_backoff();
  start_access();
}

void Mac80211::finish_frame() {
  tx_frame_.reset();
  cts_received_ = false;
  state_ = TxState::kIdle;
  retries_ = 0;
  cw_ = params_.cw_min;
  draw_backoff();  // mandatory post-transmission backoff
  try_dequeue();
  if (!engine_active() && pending_backoff_slots_ > 0 && !medium_busy()) start_access();
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void Mac80211::on_rx_end(net::Packet p, bool ok) {
  if (!ok) {
    // EIFS: a frame we couldn't decode may have been addressed to a
    // neighbour whose ACK we would not hear; hold off long enough.
    const sim::Time eifs_end =
        env_.now() + params_.eifs(static_cast<double>(params_.ack_bytes) * 8.0);
    if (eifs_end > eifs_until_) {
      eifs_until_ = eifs_end;
      difs_timer_.cancel();
      if (!medium_busy() && (tx_frame_ || pending_backoff_slots_ > 0))
        difs_timer_.schedule_at(access_deadline());
    }
    return;
  }
  if (!p.mac) return;
  // A correctly received frame cancels the EIFS penalty (§9.2.3.4).
  eifs_until_ = sim::Time::zero();
  if (p.mac->dst == address_) {
    switch (p.type) {
      case net::PacketType::kMacAck:
        handle_ack();
        return;
      case net::PacketType::kMacCts:
        handle_cts();
        return;
      case net::PacketType::kMacRts:
        handle_rts(p);
        return;
      default:
        handle_data(std::move(p));
        return;
    }
  }
  if (p.mac->dst == net::kBroadcastAddress) {
    if (!net::is_mac_control(p.type) && p.type != net::PacketType::kNoise) {
      p.prev_hop = p.mac->src;
      env_.trace(net::TraceAction::kRecv, net::TraceLayer::kMac, address_, p);
      env_.metrics().add(address_, sim::Counter::kMacRxData);
      deliver_up(std::move(p));
    }
    return;
  }
  // Overheard frame destined elsewhere: honour its NAV reservation.
  if (p.mac->duration > sim::Time::zero()) update_nav(env_.now() + p.mac->duration);
}

void Mac80211::handle_data(net::Packet p) {
  // ACK after SIFS, even for duplicates (the original ACK may have been lost).
  net::Packet ack = make_ctrl(net::PacketType::kMacAck, p.mac->src, sim::Time::zero());
  schedule_response(std::move(ack), ctrl_airtime(params_.ack_bytes));
  if (seen_.seen_or_record(p.uid)) {
    ++rx_dups_;
    env_.metrics().add(address_, sim::Counter::kMacDuplicates);
    return;
  }
  p.prev_hop = p.mac->src;
  env_.trace(net::TraceAction::kRecv, net::TraceLayer::kMac, address_, p);
  env_.metrics().add(address_, sim::Counter::kMacRxData);
  deliver_up(std::move(p));
}

void Mac80211::handle_rts(const net::Packet& p) {
  if (env_.now() < nav_until_) return;  // NAV forbids responding
  const sim::Time cts_air = ctrl_airtime(params_.cts_bytes);
  const sim::Time remaining =
      p.mac->duration > params_.sifs + cts_air ? p.mac->duration - params_.sifs - cts_air
                                               : sim::Time::zero();
  net::Packet cts = make_ctrl(net::PacketType::kMacCts, p.mac->src, remaining);
  env_.metrics().add(address_, sim::Counter::kMacCtsSent);
  schedule_response(std::move(cts), cts_air);
}

void Mac80211::handle_cts() {
  if (state_ != TxState::kWaitCts) return;
  response_timer_.cancel();
  cts_received_ = true;
  // Data follows the CTS after SIFS, without further contention.
  net::Packet copy = *tx_frame_;
  copy.mac->retry = retries_ > 0;
  const sim::Time ack_air = ctrl_airtime(params_.ack_bytes);
  copy.mac->duration = params_.sifs + ack_air;
  const sim::Time air = data_airtime(copy);
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kMac, address_, copy);
  ++tx_data_;
  env_.metrics().add(address_, sim::Counter::kMacTxData);
  if (retries_ > 0) env_.metrics().add(address_, sim::Counter::kMacRetries);
  pending_response_ = std::move(copy);
  pending_response_airtime_ = air;
  response_is_data_ = true;
  response_tx_timer_.schedule_in(params_.sifs);
  state_ = TxState::kWaitAck;
  response_timer_.schedule_in(params_.sifs + air + params_.sifs + ack_air +
                              params_.timeout_slack);
}

void Mac80211::handle_ack() {
  if (state_ != TxState::kWaitAck) return;
  response_timer_.cancel();
  finish_frame();
}

void Mac80211::schedule_response(net::Packet p, sim::Time air) {
  pending_response_ = std::move(p);
  pending_response_airtime_ = air;
  response_is_data_ = false;
  response_tx_timer_.schedule_in(params_.sifs);
}

void Mac80211::send_scheduled_response() {
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

void Mac80211::update_nav(sim::Time until) {
  if (until <= nav_until_) return;
  nav_until_ = until;
  nav_timer_.schedule_at(until);
  medium_changed();
}

void Mac80211::set_link_up(bool up) {
  if (up == link_up()) return;
  MacBase::set_link_up(up);
  if (up) return;  // a rebooted DCF is idle until the next enqueue/rx
  difs_timer_.cancel();
  backoff_timer_.cancel();
  response_timer_.cancel();
  nav_timer_.cancel();
  response_tx_timer_.cancel();
  post_tx_timer_.cancel();
  state_ = TxState::kIdle;
  tx_frame_.reset();
  pending_response_.reset();
  pending_backoff_slots_ = -1;
  medium_was_busy_ = false;
  nav_until_ = sim::Time{};
  eifs_until_ = sim::Time{};
  cw_ = params_.cw_min;
  retries_ = 0;
  cts_received_ = false;
}

}  // namespace eblnet::mac
