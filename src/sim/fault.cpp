#include "sim/fault.hpp"

#include <stdexcept>
#include <string>

namespace eblnet::sim {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kRegionBlackout: return "region_blackout";
    case FaultKind::kLinkPer: return "link_per";
    case FaultKind::kRfJam: return "rf_jam";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultPlan fluent helpers
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::crash(std::uint32_t node, Time at, Time reboot_after) {
  FaultEvent e;
  e.kind = FaultKind::kNodeCrash;
  e.at = at;
  e.duration = reboot_after;
  e.node = node;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::blackout(Time at, Time duration, double x, double y, double radius) {
  FaultEvent e;
  e.kind = FaultKind::kRegionBlackout;
  e.at = at;
  e.duration = duration;
  e.x = x;
  e.y = y;
  e.radius = radius;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::link_per(Time at, Time duration, double rate, std::uint32_t tx,
                               std::uint32_t rx) {
  FaultEvent e;
  e.kind = FaultKind::kLinkPer;
  e.at = at;
  e.duration = duration;
  e.magnitude = rate;
  e.node = tx;
  e.peer = rx;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::jam(Time at, Time duration, Time period, Time burst,
                          std::int64_t rf_channel) {
  FaultEvent e;
  e.kind = FaultKind::kRfJam;
  e.at = at;
  e.duration = duration;
  e.period = period;
  e.burst = burst;
  e.rf_channel = rf_channel;
  events.push_back(e);
  return *this;
}

// ---------------------------------------------------------------------------
// FaultController
// ---------------------------------------------------------------------------

namespace {

// mix_seed (splitmix64 finalizer) now lives in sim/rng.hpp.

void validate(const FaultEvent& e) {
  const auto bad = [&](const char* what) {
    throw std::invalid_argument{std::string{"FaultPlan: "} + what + " (" + to_string(e.kind) +
                                " event)"};
  };
  if (e.at < Time::zero()) bad("activation time must be >= 0");
  if (e.duration < Time::zero()) bad("duration must be >= 0");
  switch (e.kind) {
    case FaultKind::kNodeCrash:
      if (e.node == kAnyNode) bad("crash needs a concrete node");
      break;
    case FaultKind::kRegionBlackout:
      if (e.duration <= Time::zero()) bad("blackout needs a positive duration");
      break;
    case FaultKind::kLinkPer:
      if (!(e.magnitude >= 0.0 && e.magnitude <= 1.0)) bad("PER must be in [0, 1]");
      break;
    case FaultKind::kRfJam:
      if (e.burst <= Time::zero()) bad("jam burst must be > 0");
      if (e.period < e.burst) bad("jam period must cover the burst");
      break;
  }
}

}  // namespace

void FaultController::install(const FaultPlan& plan, Scheduler& scheduler,
                              MetricsRegistry* metrics, std::uint64_t scenario_seed) {
  if (plan.empty()) return;  // the empty plan must perturb nothing at all
  if (installed_) throw std::logic_error{"FaultController: plan already installed"};
  for (const FaultEvent& e : plan.events) validate(e);

  installed_ = true;
  scheduler_ = &scheduler;
  metrics_ = metrics;
  rng_.reseed(mix_seed(plan.rng_seed, scenario_seed));
  events_ = plan.events;
  slot_of_event_.assign(events_.size(), 0);

  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    switch (e.kind) {
      case FaultKind::kRegionBlackout:
      case FaultKind::kLinkPer: {
        slot_of_event_[i] = delivery_.size();
        DeliveryFault f;
        f.kind = e.kind;
        f.tx = e.node;
        f.rx = e.peer;
        f.rate = e.kind == FaultKind::kRegionBlackout ? 1.0 : e.magnitude;
        f.x = e.x;
        f.y = e.y;
        f.radius = e.radius;
        delivery_.push_back(f);
        break;
      }
      case FaultKind::kNodeCrash:
      case FaultKind::kRfJam:
        break;
    }

    if (e.kind == FaultKind::kRfJam) {
      const Time end = e.duration > Time::zero() ? e.at + e.duration : Time::max();
      scheduler_->schedule_at(e.at, [this, i, end] { jam_tick(i, end); });
      continue;
    }
    scheduler_->schedule_at(e.at, [this, i] { activate(i); });
    if (e.duration > Time::zero())
      scheduler_->schedule_at(e.at + e.duration, [this, i] { deactivate(i); });
  }
}

void FaultController::activate(std::size_t index) {
  const FaultEvent& e = events_[index];
  switch (e.kind) {
    case FaultKind::kNodeCrash: {
      if (node_down(e.node)) return;  // overlapping crash plans: first wins
      set_node_down(e.node, true);
      crashes_.push_back({e.node, e.at,
                          e.duration > Time::zero() ? e.at + e.duration : Time::zero()});
      if (metrics_ != nullptr) metrics_->add(e.node, Counter::kFaultCrashes);
      if (node_state_hook_) node_state_hook_(e.node, false);
      break;
    }
    case FaultKind::kRegionBlackout:
    case FaultKind::kLinkPer:
      delivery_[slot_of_event_[index]].active = true;
      ++delivery_active_;
      break;
    case FaultKind::kRfJam:
      break;  // driven by jam_tick
  }
}

void FaultController::deactivate(std::size_t index) {
  const FaultEvent& e = events_[index];
  switch (e.kind) {
    case FaultKind::kNodeCrash:
      if (!node_down(e.node)) return;
      set_node_down(e.node, false);
      if (metrics_ != nullptr) metrics_->add(e.node, Counter::kFaultReboots);
      if (node_state_hook_) node_state_hook_(e.node, true);
      break;
    case FaultKind::kRegionBlackout:
    case FaultKind::kLinkPer:
      delivery_[slot_of_event_[index]].active = false;
      --delivery_active_;
      break;
    case FaultKind::kRfJam:
      break;
  }
}

void FaultController::jam_tick(std::size_t index, Time end) {
  if (scheduler_->now() >= end) return;
  const FaultEvent& e = events_[index];
  ++jam_bursts_;
  if (jam_burst_hook_) jam_burst_hook_(e);
  if (e.period > Time::zero()) {
    scheduler_->schedule_at(scheduler_->now() + e.period, [this, index, end] {
      jam_tick(index, end);
    });
  }
}

void FaultController::set_node_down(std::uint32_t node, bool down) {
  if (node >= down_.size()) down_.resize(node + 1, 0);
  if (down_[node] == static_cast<std::uint8_t>(down)) return;
  down_[node] = down ? 1 : 0;
  down_count_ += down ? 1 : 0;
  down_count_ -= down ? 0 : 1;
}

bool FaultController::drop_delivery(std::uint32_t tx, std::uint32_t rx, double rx_x,
                                    double rx_y) {
  for (const DeliveryFault& f : delivery_) {
    if (!f.active) continue;
    if (f.kind == FaultKind::kLinkPer) {
      if (f.tx != kAnyNode && f.tx != tx) continue;
      if (f.rx != kAnyNode && f.rx != rx) continue;
    }
    if (f.radius >= 0.0) {
      const double dx = rx_x - f.x;
      const double dy = rx_y - f.y;
      if (dx * dx + dy * dy > f.radius * f.radius) continue;
    }
    if (f.rate < 1.0 && !rng_.chance(f.rate)) continue;
    ++injected_drops_;
    if (metrics_ != nullptr) metrics_->add(rx, Counter::kFaultInjectedDrops);
    return true;
  }
  return false;
}

}  // namespace eblnet::sim
