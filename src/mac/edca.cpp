#include "mac/edca.hpp"

#include <algorithm>
#include <utility>

namespace eblnet::mac {

const char* to_string(AccessCategory ac) noexcept {
  switch (ac) {
    case AccessCategory::kBackground: return "AC_BK";
    case AccessCategory::kBestEffort: return "AC_BE";
    case AccessCategory::kVideo: return "AC_VI";
    case AccessCategory::kVoice: return "AC_VO";
  }
  return "?";
}

namespace {
constexpr AccessCategory kAcOrder[kAccessCategoryCount] = {
    AccessCategory::kVoice, AccessCategory::kVideo, AccessCategory::kBestEffort,
    AccessCategory::kBackground};
}  // namespace

Edca::Edca(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
           std::unique_ptr<net::PacketQueue> ifq, EdcaParams params)
    : CsmaMac{env, address, phy, std::move(ifq), params_},
      params_{params},
      access_timer_{env.scheduler(), [this] { on_access_timer(); }} {
  for (std::size_t i = 0; i < kAccessCategoryCount; ++i) {
    ac_[i].cw = params_.ac[i].cw_min;
    ac_[i].queue = queue::PacketRing{params_.ac_queue_capacity};
  }
  start("Edca");
}

// ---------------------------------------------------------------------------
// Upper-layer entry and per-AC queueing
// ---------------------------------------------------------------------------

void Edca::enqueue(net::Packet p) {
  if (!p.mac) p.mac.emplace();
  p.mac->src = address_;
  const AccessCategory c = ac_for_priority(p.priority);
  if (!ac_enqueue(c, std::move(p))) return;
  try_dequeue(c);
  // A frame arriving to a busy medium must contend with a drawn backoff
  // (it cannot take the post-AIFS immediate-access path).
  if (st(c).frame && st(c).slots < 0 && medium_busy()) draw_backoff(c);
  if (state_ == TxState::kIdle) reschedule();
}

bool Edca::ac_enqueue(AccessCategory c, net::Packet p) {
  if (c == AccessCategory::kBestEffort) return ifq_->enqueue(std::move(p));
  AcState& a = st(c);
  if (a.queue.size() >= params_.ac_queue_capacity) {
    env_.metrics().add(address_, sim::Counter::kIfqDropped);
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address_, p, "IFQ");
    return false;
  }
  a.queue.push_back(std::move(p));
  env_.metrics().add(address_, sim::Counter::kIfqEnqueued);
  env_.metrics().sample(address_, sim::Gauge::kIfqDepth,
                        static_cast<double>(a.queue.size()));
  return true;
}

std::optional<net::Packet> Edca::ac_dequeue(AccessCategory c) {
  if (c == AccessCategory::kBestEffort) return ifq_->dequeue();
  AcState& a = st(c);
  if (a.queue.empty()) return std::nullopt;
  net::Packet p = a.queue.pop_front();
  env_.metrics().add(address_, sim::Counter::kIfqDequeued);
  return p;
}

void Edca::try_dequeue(AccessCategory c) {
  AcState& a = st(c);
  if (a.frame) return;
  auto next = ac_dequeue(c);
  if (!next) return;
  a.frame = std::move(*next);
  a.retries = 0;
}

std::size_t Edca::ac_queue_length(AccessCategory c) const noexcept {
  if (c == AccessCategory::kBestEffort) return ifq_->length();
  return st(c).queue.size();
}

std::vector<net::Packet> Edca::flush_next_hop(net::NodeId next_hop) {
  std::vector<net::Packet> out = ifq_->remove_by_next_hop(next_hop);
  for (AccessCategory c :
       {AccessCategory::kBackground, AccessCategory::kVideo, AccessCategory::kVoice}) {
    auto& q = st(c).queue;
    for (std::size_t i = 0; i < q.size();) {
      net::Packet& p = q.at(i);
      if (p.mac && p.mac->dst == next_hop) {
        env_.metrics().add(address_, sim::Counter::kIfqRemoved);
        out.push_back(std::move(p));
        q.erase(i);
      } else {
        ++i;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Arbitration engine: one timer at the earliest per-AC grant time.
//
// Countdown accounting is analytic rather than timer-per-AC: each category's
// remaining slots are debited lazily against its anchor — the latest of
// (idle edge + AIFS[ac]), the EIFS deadline, and the point already debited
// this idle period. grant(ac) = anchor + slots * slot_time.
// ---------------------------------------------------------------------------

sim::Time Edca::anchor(AccessCategory c) const {
  sim::Time t = idle_since_ + params_.aifs(c);
  if (eifs_edge_ > sim::Time::zero()) {
    const sim::Time eifs_deadline =
        eifs_edge_ + params_.sifs + ctrl_airtime(params_.ack_bytes) + params_.aifs(c);
    t = std::max(t, eifs_deadline);
  }
  return std::max(t, st(c).debited_until);
}

sim::Time Edca::grant_time(AccessCategory c) const {
  const int slots = std::max(0, st(c).slots);
  return anchor(c) + params_.slot_time * static_cast<std::int64_t>(slots);
}

void Edca::debit_countdowns() {
  if (!countdown_running_) return;
  const sim::Time now = env_.now();
  for (AccessCategory c : kAcOrder) {
    AcState& a = st(c);
    if (a.slots <= 0) continue;
    const sim::Time t = anchor(c);
    if (now <= t) continue;
    const auto consumed =
        std::min<std::int64_t>((now - t) / params_.slot_time, a.slots);
    a.slots -= static_cast<int>(consumed);
    a.debited_until = t + params_.slot_time * consumed;
  }
}

void Edca::pause_countdowns() {
  debit_countdowns();
  countdown_running_ = false;
  access_timer_.cancel();
}

void Edca::reschedule() {
  if (state_ != TxState::kIdle || medium_busy()) {
    countdown_running_ = false;
    access_timer_.cancel();
    return;
  }
  bool any = false;
  sim::Time earliest{};
  for (AccessCategory c : kAcOrder) {
    if (!contending(c)) continue;
    const sim::Time g = grant_time(c);
    if (!any || g < earliest) earliest = g;
    any = true;
  }
  if (!any) {
    countdown_running_ = false;
    access_timer_.cancel();
    return;
  }
  countdown_running_ = true;
  access_timer_.schedule_at(std::max(env_.now(), earliest));
}

void Edca::medium_changed() {
  const bool busy = medium_busy();
  if (busy == medium_was_busy_) return;
  medium_was_busy_ = busy;
  if (busy) {
    pause_countdowns();
  } else {
    idle_since_ = env_.now();
    for (AcState& a : ac_) a.debited_until = sim::Time::zero();
    if (state_ == TxState::kIdle) reschedule();
  }
}

void Edca::on_access_timer() {
  if (state_ != TxState::kIdle) return;
  if (medium_busy()) {
    pause_countdowns();
    return;
  }
  debit_countdowns();
  const sim::Time now = env_.now();
  int winner = -1;
  for (AccessCategory c : kAcOrder) {  // highest category first
    if (!contending(c) || grant_time(c) > now) continue;
    AcState& a = st(c);
    if (!a.frame) {
      a.slots = -1;  // leftover post-tx backoff expired with nothing to send
      continue;
    }
    if (winner < 0) {
      winner = static_cast<int>(c);
    } else {
      // Internal (virtual) collision: a higher category reached its grant
      // in the same slot; this one behaves as if the medium collided.
      ++internal_collisions_;
      env_.metrics().add(address_, sim::Counter::kMacInternalCollisions);
      double_cw(c);
      draw_backoff(c);
    }
  }
  if (winner < 0) {
    reschedule();
    return;
  }
  const auto c = static_cast<AccessCategory>(winner);
  st(c).slots = -1;  // backoff fully consumed
  transmit_ac(c);
}

void Edca::draw_backoff(AccessCategory c) {
  AcState& a = st(c);
  a.slots = static_cast<int>(
      env_.rng().uniform_int(static_cast<std::uint64_t>(a.cw) + 1));
  env_.metrics().add(address_, sim::Counter::kMacBackoffSlots,
                     static_cast<std::uint64_t>(a.slots));
}

void Edca::double_cw(AccessCategory c) {
  AcState& a = st(c);
  a.cw = std::min(a.cw * 2 + 1, params_.ac[static_cast<std::size_t>(c)].cw_max);
}

// ---------------------------------------------------------------------------
// Transmit side
// ---------------------------------------------------------------------------

void Edca::transmit_ac(AccessCategory c) {
  cur_ac_ = c;
  AcState& a = st(c);
  if (phy_.transmitting() || phy_.receiving()) {
    // Lost the race with an incoming frame; contend again.
    if (a.slots < 0) draw_backoff(c);
    reschedule();
    return;
  }
  ++a.tx_count;
  send_data(*a.frame, a.retries);
}

net::Packet* Edca::on_response_timeout() {
  AcState& a = st(cur_ac_);
  ++a.retries;
  double_cw(cur_ac_);
  if (a.retries > params_.short_retry_limit) return &*a.frame;
  state_ = TxState::kIdle;
  draw_backoff(cur_ac_);
  reschedule();
  return nullptr;
}

void Edca::finish_frame() {
  AcState& a = st(cur_ac_);
  a.frame.reset();
  a.retries = 0;
  a.cw = params_.ac[static_cast<std::size_t>(cur_ac_)].cw_min;
  draw_backoff(cur_ac_);  // mandatory post-transmission backoff
  try_dequeue(cur_ac_);
  state_ = TxState::kIdle;
  // The carrier event for our own tx end may not have run yet; fold the
  // edge in ourselves so idle_since_ anchors at the right instant either way.
  medium_changed();
  if (!medium_busy()) reschedule();
}

// ---------------------------------------------------------------------------
// EIFS and link down
// ---------------------------------------------------------------------------

void Edca::on_rx_corrupt() {
  // EIFS: the corrupted frame may have been addressed to a neighbour
  // whose ACK we would not hear; every category defers long enough.
  eifs_edge_ = std::max(eifs_edge_, env_.now());
  if (state_ == TxState::kIdle) reschedule();
}

void Edca::on_rx_clean() {
  // A correctly received frame cancels the EIFS penalty.
  const bool had_eifs = eifs_edge_ > sim::Time::zero();
  eifs_edge_ = sim::Time::zero();
  if (had_eifs && state_ == TxState::kIdle) reschedule();
}

void Edca::stop_access() {
  access_timer_.cancel();
  for (std::size_t i = 0; i < kAccessCategoryCount; ++i) {
    AcState& a = ac_[i];
    while (!a.queue.empty()) {
      const net::Packet p = a.queue.pop_front();
      env_.metrics().add(address_, sim::Counter::kIfqFaultFlushed);
      env_.trace(net::TraceAction::kDrop, net::TraceLayer::kIfq, address_, p, "FLT");
    }
    a.frame.reset();
    a.slots = -1;
    a.cw = params_.ac[i].cw_min;
    a.retries = 0;
    a.debited_until = sim::Time::zero();
  }
  medium_was_busy_ = false;
  countdown_running_ = false;
  idle_since_ = sim::Time{};
  eifs_edge_ = sim::Time{};
}

}  // namespace eblnet::mac
