#include "phy/wireless_phy.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace eblnet::phy {
namespace {
constexpr double kSpeedOfLight = 299'792'458.0;
}

WirelessPhy::WirelessPhy(net::Env& env, net::NodeId owner, Channel& channel, PositionFn position,
                         PhyParams params)
    : env_{env},
      owner_{owner},
      channel_{channel},
      position_{std::move(position)},
      params_{params},
      rx_end_timer_{env.scheduler(), [this] { finish_reception(); }},
      carrier_timer_{env.scheduler(), [this] { update_carrier(); }} {
  if (!position_) throw std::invalid_argument{"WirelessPhy: position function required"};
  channel_.attach(this);
}

WirelessPhy::~WirelessPhy() {
  if (!down_) channel_.detach(this);  // a crashed phy already detached
}

void WirelessPhy::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    // Quiet teardown: no COL/TXB accounting — the radio lost power.
    // Close out any open busy interval first so busy_time() stays exact.
    if (carrier_was_busy_) busy_accum_ = busy_accum_ + (env_.now() - busy_edge_);
    rx_active_ = false;
    rx_end_timer_.cancel();
    rx_packet_.reset();
    carrier_timer_.cancel();
    carrier_reserved_seq_ = 0;
    tx_until_ = sim::Time{};
    busy_until_ = sim::Time{};
    carrier_was_busy_ = false;
    channel_.detach(this);
  } else {
    channel_.attach(this);
  }
}

void WirelessPhy::set_channel_id(std::uint32_t id) {
  if (id == channel_id_) return;
  channel_id_ = id;
  if (rx_active_) abort_reception();
  // Energy on the old channel is invisible now (own tx keeps its slot:
  // the radio finishes the burst it started).
  busy_until_ = std::min(busy_until_, env_.now());
  update_carrier();
}

void WirelessPhy::transmit(net::Packet p, sim::Time duration) {
  if (down_) return;  // crashed radio: the frame evaporates
  if (transmitting()) throw std::logic_error{"WirelessPhy: already transmitting"};
  if (duration <= sim::Time::zero()) throw std::invalid_argument{"WirelessPhy: bad duration"};
  // Half duplex: whatever we were decoding is lost.
  if (rx_active_) abort_reception();
  tx_until_ = env_.now() + duration;
  ++tx_count_;
  env_.metrics().add(owner_, sim::Counter::kPhyTx);
  note_busy_until(tx_until_);
  channel_.transmit(*this, std::move(p), duration);
  update_carrier();
}

void WirelessPhy::signal_start(const net::Packet& p, double rx_power_w, sim::Time duration) {
  const sim::Time end = env_.now() + duration;
  note_busy_until(end);

  if (transmitting()) {
    // Half duplex: incoming energy is invisible while we radiate.
    update_carrier();
    return;
  }

  if (rx_active_) {
    // Overlap with the reception in progress: apply the capture rule.
    if (rx_power_ >= rx_power_w * params_.capture_ratio) {
      // Ongoing reception powers through; the newcomer is just noise.
    } else if (rx_power_w >= rx_power_ * params_.capture_ratio &&
               rx_power_w >= params_.rx_threshold_w) {
      // Newcomer captures the receiver; the old frame is lost.
      ++rx_collision_count_;
      env_.metrics().add(owner_, sim::Counter::kPhyRxCaptured);
      env_.metrics().add(owner_, sim::Counter::kPhyRxCollision);
      env_.trace(net::TraceAction::kDrop, net::TraceLayer::kPhy, owner_, *rx_packet_, "COL");
      *rx_packet_ = p;  // the lost frame's pooled shell keeps the newcomer
      rx_power_ = rx_power_w;
      rx_ok_ = true;
      arm_rx_end(end);
    } else {
      // Comparable powers: both frames are corrupted.
      rx_ok_ = false;
      // Keep decoding until the longer of the two signals ends, like a
      // real receiver that can't resynchronise mid-burst.
      if (end > rx_end_timer_.expires_at()) arm_rx_end(end);
    }
  } else if (rx_power_w >= params_.rx_threshold_w) {
    rx_active_ = true;
    rx_ok_ = true;
    rx_power_ = rx_power_w;
    rx_packet_ = env_.packet_pool().clone(p);
    arm_rx_end(end);
  } else {
    // Below RX threshold with no reception in progress: carrier noise only.
    env_.metrics().add(owner_, sim::Counter::kPhyBelowRxThreshold);
  }
  update_carrier();
}

void WirelessPhy::finish_reception() {
  rx_active_ = false;
  // A reserved carrier shot is due now, after this one, and would find
  // the idle transition that update_carrier() below makes: drop it.
  assert(carrier_reserved_seq_ == 0 ||
         (rx_end_covers_carrier_ && carrier_reserved_at_ == env_.now()));
  carrier_reserved_seq_ = 0;
  // Take the pooled shell locally; the MAC-facing callback receives the
  // frame by rvalue reference, so nothing above the phy needs to know
  // about pooling. The shell returns to the pool at scope exit.
  net::PooledPacket h = std::move(rx_packet_);
  const bool ok = rx_ok_;
  if (ok) {
    ++rx_ok_count_;
    env_.metrics().add(owner_, sim::Counter::kPhyRxOk);
  } else {
    ++rx_collision_count_;
    env_.metrics().add(owner_, sim::Counter::kPhyRxCollision);
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kPhy, owner_, *h, "COL");
  }
  update_carrier();
  if (rx_end_cb_) rx_end_cb_(std::move(*h), ok);
}

void WirelessPhy::abort_reception() {
  rx_active_ = false;
  rx_end_timer_.cancel();
  rx_end_covers_carrier_ = false;
  ++rx_collision_count_;
  env_.metrics().add(owner_, sim::Counter::kPhyRxAbortedByTx);
  env_.metrics().add(owner_, sim::Counter::kPhyRxCollision);
  env_.trace(net::TraceAction::kDrop, net::TraceLayer::kPhy, owner_, *rx_packet_, "TXB");
  rx_packet_.reset();
}

void WirelessPhy::note_busy_until(sim::Time t) {
  if (t > busy_until_) busy_until_ = t;
}

void WirelessPhy::arm_rx_end(sim::Time end) {
  rx_end_timer_.schedule_at(end);
  rx_end_covers_carrier_ = false;
}

// The carrier shot re-checks the carrier when the last known signal
// ends. Where the rx-end shot is pending at that same instant, it fires
// first (its seq is earlier), and its own update_carrier() makes the idle
// transition: a carrier shot right after it would change nothing. So
// arm_carrier() then only reserves the seq a queued shot would take, and
// finish_reception() drops the reservation. Anything that changes
// busy_until_ or tx_until_ in between calls update_carrier(), which
// re-arms the shot at (until, next seq) — a busy carrier ends after now —
// just as it would move a queued shot. And if the rx-end shot moves or is
// cancelled instead (capture, collision extension, an aborting transmit
// or retune), the call below queues the shot at its reserved key. Every
// event keeps the key it would have had with the shot queued all along.
void WirelessPhy::update_carrier() {
  const bool busy = carrier_busy();
  const sim::Time until = std::max(busy_until_, tx_until_);
  const bool reserved = carrier_reserved_seq_ != 0;
  const bool armed = reserved || carrier_timer_.pending();
  const sim::Time due = reserved ? carrier_reserved_at_ : carrier_timer_.expires_at();
  if (busy && (!armed || due < until)) {
    arm_carrier(until);
  } else if (reserved && !rx_end_covers_carrier_) {
    carrier_timer_.schedule_reserved(carrier_reserved_at_, carrier_reserved_seq_);
    carrier_reserved_seq_ = 0;
  }
  if (busy != carrier_was_busy_) {
    if (busy) {
      busy_edge_ = env_.now();
    } else {
      busy_accum_ = busy_accum_ + (env_.now() - busy_edge_);
    }
    carrier_was_busy_ = busy;
    if (busy) env_.metrics().add(owner_, sim::Counter::kPhyCsBusy);
    if (carrier_cb_) carrier_cb_(busy);
  }
}

void WirelessPhy::arm_carrier(sim::Time until) {
  if (rx_end_timer_.pending() && rx_end_timer_.expires_at() == until) {
    carrier_timer_.cancel();
    carrier_reserved_at_ = until;
    carrier_reserved_seq_ = env_.scheduler().reserve_seq();
    rx_end_covers_carrier_ = true;
  } else {
    carrier_reserved_seq_ = 0;
    carrier_timer_.schedule_at(until);
  }
}

Channel::Channel(net::Env& env, std::shared_ptr<PropagationModel> propagation,
                 ChannelParams params)
    : env_{env}, propagation_{std::move(propagation)}, params_{params} {
  if (!propagation_) throw std::invalid_argument{"Channel: propagation model required"};
  if (!(params_.grid_max_speed_mps >= 0.0))
    throw std::invalid_argument{"Channel: grid max speed must be >= 0"};
  if (params_.grid_rebucket_period < sim::Time::zero())
    throw std::invalid_argument{"Channel: grid re-bucket period must be >= 0"};
}

void Channel::attach(WirelessPhy* phy) {
  if (phy == nullptr) throw std::invalid_argument{"Channel: null phy"};
  phy->chan_index_ = static_cast<std::uint32_t>(phys_.size());
  phys_.push_back(phy);

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(nullptr);
    generations_.push_back(0);
  }
  slots_[slot] = phy;
  ++generations_[slot];  // in-flight deliveries to the slot's previous occupant die
  phy->chan_slot_ = slot;
  phy->attach_seq_ = next_attach_seq_++;
  phy->grid_bucketed_ = false;

  // The interference range only ever grows under the conservative
  // extremes; a grown range needs larger cells, i.e. a grid rebuild.
  if (phy->params().tx_power_w > max_tx_power_w_) {
    max_tx_power_w_ = phy->params().tx_power_w;
    range_dirty_ = true;
  }
  if (phy->params().cs_threshold_w < min_cs_threshold_w_) {
    min_cs_threshold_w_ = phy->params().cs_threshold_w;
    range_dirty_ = true;
  }
  if (grid_built_ && !range_dirty_) grid_.insert(phy, phy->position());
}

void Channel::detach(WirelessPhy* phy) {
  assert(phys_[phy->chan_index_] == phy);  // attached, and detached once
  phys_[phy->chan_index_] = nullptr;
  if (++phy_holes_ * 2 > phys_.size()) compact_phys();
  if (grid_built_) grid_.remove(phy);
  slots_[phy->chan_slot_] = nullptr;
  free_slots_.push_back(phy->chan_slot_);
  // max_tx_power_w_ / min_cs_threshold_w_ stay as-is: conservative
  // extremes only widen the candidate neighbourhood, never miss a phy.
}

void Channel::compact_phys() {
  std::erase(phys_, nullptr);
  for (std::size_t i = 0; i < phys_.size(); ++i) {
    phys_[i]->chan_index_ = static_cast<std::uint32_t>(i);
  }
  phy_holes_ = 0;
}

double Channel::mobility_slack() const noexcept {
  // Bucketed positions are at most grid_rebucket_period old, so the
  // farthest an in-range phy's bucket can sit from its true position is
  // the mobility slack; the epsilon absorbs range_for_threshold's
  // bisection rounding at the exact threshold distance. The speed bound
  // is the larger of the static closed-form assumption and whatever a
  // stateful dynamics engine has declared via raise_speed_bound().
  return speed_bound_mps() * params_.grid_rebucket_period.to_seconds() + 1e-6;
}

void Channel::raise_speed_bound(double mps) {
  if (!(mps >= 0.0)) throw std::invalid_argument{"Channel: speed bound must be >= 0"};
  if (mps <= dynamic_speed_bound_mps_) return;
  const double old_effective = speed_bound_mps();
  dynamic_speed_bound_mps_ = mps;
  // The cell size bakes the slack in at (re)build time; a larger bound
  // invalidates it, so the next grid transmit rebuilds.
  if (speed_bound_mps() > old_effective) range_dirty_ = true;
}

double Channel::query_radius() const noexcept { return interference_range_m_ + mobility_slack(); }

void Channel::rebuild_grid() {
  interference_range_m_ =
      propagation_->range_for_threshold(max_tx_power_w_, min_cs_threshold_w_);
  range_dirty_ = false;
  // Cell size == query radius: a query never scans beyond the 3x3
  // neighbourhood of the sender's cell.
  grid_.reset(query_radius());
  for (WirelessPhy* phy : phys_) {
    if (phy != nullptr) grid_.insert(phy, phy->position());
  }
  grid_built_ = true;
  last_rebucket_ = env_.now();
}

void Channel::rebucket_all() {
  for (WirelessPhy* phy : phys_) {
    if (phy != nullptr) grid_.update(phy, phy->position());
  }
  last_rebucket_ = env_.now();
  ++grid_rebucket_count_;
}

void Channel::transmit(WirelessPhy& sender, net::Packet p, sim::Time duration) {
  ++broadcast_count_;
  collect_receivers(sender);
  schedule_deliveries(sender.owner(), std::move(p), duration);
}

void Channel::collect_receivers(WirelessPhy& sender) {
  scratch_.clear();

  // One virtual query per broadcast (not per pair) keeps the default
  // models' hot path untouched: distance-only models skip both branches.
  const bool position_aware = propagation_->position_aware();
  const bool pair_streams = propagation_->pair_fade_streams();
  const sim::Time now = env_.now();
  const mobility::Vec2 from = sender.position();
  const double tx_power_w = sender.params().tx_power_w;
  const std::uint32_t channel_id = sender.channel_id();

  const auto pair_power = [&](const WirelessPhy& rx, double d,
                              mobility::Vec2 to) {
    if (pair_streams) propagation_->select_pair_stream(sender.owner(), rx.owner(), now);
    return position_aware ? propagation_->rx_power_between(tx_power_w, from, to, d)
                          : propagation_->rx_power(tx_power_w, d);
  };

  const auto consider = [&](WirelessPhy* rx) {
    if (rx == nullptr || rx == &sender) return;  // detach hole, or the sender
    ++pair_evaluations_;
    if (rx->channel_id() != channel_id) return;  // different frequency
    const mobility::Vec2 to = rx->position();
    const double d = mobility::distance(from, to);
    const double power = pair_power(*rx, d, to);
    if (power < rx->params().cs_threshold_w) return;  // invisible
    scratch_.push_back({rx, rx->chan_slot_, generations_[rx->chan_slot_], power,
                        sim::Time::seconds(d / kSpeedOfLight)});
  };

  if (grid_active()) {
    if (!grid_built_ || range_dirty_) {
      rebuild_grid();
    } else if (env_.now() - last_rebucket_ >= params_.grid_rebucket_period) {
      rebucket_all();
    }
    grid_.update(&sender, from);  // the sender's position is exact and free
    // Phase 1: one range² sweep over the SoA positions against the
    // channel's query radius.
    const std::uint64_t lanes = grid_.cull(from, query_radius(), &sender, candidates_);
    batch_lane_count_ += lanes;
    batch_culled_count_ += lanes - candidates_.size();
    env_.metrics().add(sender.owner(), sim::Counter::kPhyBatchCulled,
                       lanes - candidates_.size());
    env_.metrics().add(sender.owner(), sim::Counter::kPhyBatchSurvivors, candidates_.size());
    // One post-cull sort over survivors: attach-sequence order is exactly
    // the flat loop's iteration order. The sort key lives in the
    // candidate record, so comparisons chase no pointers.
    std::sort(candidates_.begin(), candidates_.end(),
              [](const GridCandidate& a, const GridCandidate& b) { return a.seq < b.seq; });
    // Phase 2: the flat loop's exact filter (frequency channel, then the
    // receiver's own CS threshold), in the flat loop's order; only the
    // candidate set is pruned.
    for (const GridCandidate& c : candidates_) consider(c.phy);
  } else {
    for (WirelessPhy* rx : phys_) consider(rx);
  }
}

void Channel::schedule_deliveries(net::NodeId tx, net::Packet&& p, sim::Time duration) {
  if (scratch_.empty()) return;
  sim::Scheduler& sched = env_.scheduler();
  // One seq per receiver, in receiver order: deliveries due at one instant
  // run in receiver order, after everything queued before this transmit.
  const std::uint64_t first_seq = sched.reserve_seqs(scratch_.size());
  if (free_fanouts_.empty()) {
    fanouts_.push_back(std::make_unique<FanOut>());
    free_fanouts_.push_back(fanouts_.back().get());
  }
  FanOut& f = *free_fanouts_.back();
  free_fanouts_.pop_back();
  f.frame = std::move(p);
  f.tx = tx;
  f.duration = duration;
  f.next = 0;
  f.arrivals.clear();
  const sim::Time now = env_.now();
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    const Reachable& r = scratch_[i];
    f.arrivals.push_back({now + r.prop_delay, first_seq + i, r.slot, r.generation, r.power_w});
  }
  std::sort(f.arrivals.begin(), f.arrivals.end(), [](const Arrival& a, const Arrival& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  });
  const Arrival& a = f.arrivals.front();
  sched.schedule_reserved(a.at, a.seq, [this, &f] { fan_out(f); });
}

void Channel::fan_out(FanOut& f) {
  sim::Scheduler& sched = env_.scheduler();
  for (;;) {
    deliver(f, f.arrivals[f.next]);
    if (++f.next == f.arrivals.size()) {
      free_fanouts_.push_back(&f);
      return;
    }
    const Arrival& a = f.arrivals[f.next];
    if (!sched.claim(a.at, a.seq)) {
      sched.schedule_reserved(a.at, a.seq, [this, &f] { fan_out(f); });
      return;
    }
  }
}

void Channel::deliver(const FanOut& f, const Arrival& a) {
  // The receiver may have detached (and been destroyed) during the
  // propagation delay, and its slot may even hold a newer phy; either way
  // the generation mismatch (or empty slot) drops the signal.
  if (generations_[a.slot] != a.generation) return;
  WirelessPhy* rx = slots_[a.slot];
  if (rx == nullptr) return;
  // Injected blackout / packet-error-rate faults veto receiver-side,
  // after culling and liveness, so a fault-free run never pays more than
  // this one predicted branch.
  if (env_.faults().delivery_faults_active()) {
    const mobility::Vec2 pos = rx->position();
    if (env_.faults().drop_delivery(f.tx, rx->owner(), pos.x, pos.y)) return;
  }
  rx->signal_start(f.frame, a.power_w, f.duration);
}

}  // namespace eblnet::phy
