#include "mac/mac_80211.hpp"

#include <algorithm>

namespace eblnet::mac {

Mac80211::Mac80211(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
                   std::unique_ptr<net::PacketQueue> ifq, Mac80211Params params)
    : CsmaMac{env, address, phy, std::move(ifq), params_},
      cw_{params.cw_min},
      params_{params},
      difs_timer_{env.scheduler(), [this] { on_difs_complete(); }},
      backoff_timer_{env.scheduler(), [this] { on_backoff_complete(); }} {
  start("Mac80211");
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
  send_data(*tx_frame_, retries_);
}

net::Packet* Mac80211::on_response_timeout() {
  ++retries_;
  cw_ = std::min(cw_ * 2 + 1, params_.cw_max);
  if (retries_ > retry_limit_for_current()) return &*tx_frame_;
  state_ = TxState::kAccess;
  cts_received_ = false;
  draw_backoff();
  start_access();
  return nullptr;
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

void Mac80211::on_rx_corrupt() {
  // EIFS: a frame we couldn't decode may have been addressed to a
  // neighbour whose ACK we would not hear; hold off long enough.
  const sim::Time eifs_end =
      env_.now() + params_.eifs(static_cast<double>(params_.ack_bytes) * 8.0);
  if (eifs_end <= eifs_until_) return;
  eifs_until_ = eifs_end;
  difs_timer_.cancel();
  if (!medium_busy() && (tx_frame_ || pending_backoff_slots_ > 0))
    difs_timer_.schedule_at(access_deadline());
}

void Mac80211::on_rx_clean() {
  // A correctly received frame cancels the EIFS penalty (§9.2.3.4).
  eifs_until_ = sim::Time::zero();
}

void Mac80211::handle_rts_cts(const net::Packet& p) {
  if (p.type == net::PacketType::kMacCts) {
    if (state_ != TxState::kWaitCts) return;
    response_timer_.cancel();
    cts_received_ = true;
    // Data follows the CTS after SIFS, without further contention.
    const sim::Time air = data_airtime(*tx_frame_);
    schedule_response(data_copy(*tx_frame_, retries_), air);
    await_ack(params_.sifs + air);
    return;
  }
  if (env_.now() < nav_until_) return;  // NAV forbids responding
  const sim::Time cts_air = ctrl_airtime(params_.cts_bytes);
  const sim::Time remaining =
      p.mac->duration > params_.sifs + cts_air ? p.mac->duration - params_.sifs - cts_air
                                               : sim::Time::zero();
  net::Packet cts = make_ctrl(net::PacketType::kMacCts, p.mac->src, remaining);
  env_.metrics().add(address_, sim::Counter::kMacCtsSent);
  schedule_response(std::move(cts), cts_air);
}

void Mac80211::stop_access() {
  difs_timer_.cancel();
  backoff_timer_.cancel();
  tx_frame_.reset();
  pending_backoff_slots_ = -1;
  medium_was_busy_ = false;
  eifs_until_ = sim::Time{};
  cw_ = params_.cw_min;
  retries_ = 0;
  cts_received_ = false;
}

}  // namespace eblnet::mac
