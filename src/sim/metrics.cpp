#include "sim/metrics.hpp"

#include <algorithm>

namespace eblnet::sim {

namespace {

struct CounterInfo {
  const char* name;
  const char* layer;
};

constexpr CounterInfo kCounterInfo[kCounterCount] = {
    {"phy_tx", "phy"},
    {"phy_rx_ok", "phy"},
    {"phy_rx_collision", "phy"},
    {"phy_rx_captured", "phy"},
    {"phy_rx_aborted_by_tx", "phy"},
    {"phy_below_rx_threshold", "phy"},
    {"phy_cs_busy", "phy"},
    {"phy_batch_culled", "phy"},
    {"phy_batch_survivors", "phy"},

    {"mac_tx_data", "mac"},
    {"mac_rx_data", "mac"},
    {"mac_retries", "mac"},
    {"mac_retry_drops", "mac"},
    {"mac_backoff_slots", "mac"},
    {"mac_rts_sent", "mac"},
    {"mac_cts_sent", "mac"},
    {"mac_ack_timeouts", "mac"},
    {"mac_duplicates", "mac"},
    {"mac_internal_collisions", "mac"},

    {"tdma_slots_used", "mac"},
    {"tdma_slots_idle", "mac"},
    {"tdma_oversize_drops", "mac"},

    {"ifq_enqueued", "ifq"},
    {"ifq_dequeued", "ifq"},
    {"ifq_dropped", "ifq"},
    {"ifq_red_early_drops", "ifq"},
    {"ifq_removed", "ifq"},
    {"ifq_fault_flushed", "ifq"},
    {"ifq_residual", "ifq"},

    {"aodv_rreq_sent", "routing"},
    {"aodv_rreq_forwarded", "routing"},
    {"aodv_rrep_sent", "routing"},
    {"aodv_rrep_forwarded", "routing"},
    {"aodv_rerr_sent", "routing"},
    {"aodv_hello_sent", "routing"},
    {"aodv_discoveries", "routing"},
    {"aodv_discovery_rounds", "routing"},
    {"aodv_discovery_failures", "routing"},

    {"tcp_data_sent", "transport"},
    {"tcp_retransmits", "transport"},
    {"tcp_rto_firings", "transport"},
    {"tcp_fast_retransmits", "transport"},
    {"tcp_acks_received", "transport"},

    {"app_messages_generated", "app"},
    {"app_messages_delivered", "app"},
    {"app_beacon_sent", "app"},
    {"app_beacon_received", "app"},

    {"fault_crashes", "fault"},
    {"fault_reboots", "fault"},
    {"fault_injected_drops", "fault"},
    {"fault_tx_suppressed", "fault"},
};

constexpr const char* kGaugeNames[kGaugeCount] = {
    "ifq_depth",
    "aodv_route_acquisition_s",
    "tcp_cwnd",
    "aodv_reroute_after_failure_s",
    "beacon_inter_rx_s",
    "channel_busy_ratio",
};

}  // namespace

const char* counter_name(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < kCounterCount ? kCounterInfo[i].name : "?";
}

const char* counter_layer(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < kCounterCount ? kCounterInfo[i].layer : "?";
}

const char* gauge_name(Gauge g) noexcept {
  const auto i = static_cast<std::size_t>(g);
  return i < kGaugeCount ? kGaugeNames[i] : "?";
}

void MetricsSnapshot::merge(const MetricsSnapshot& o) {
  enabled = enabled || o.enabled;
  if (o.nodes > nodes) {
    nodes = o.nodes;
    counters.resize(nodes * kCounterCount, 0);
    gauges.resize(nodes * kGaugeCount);
  }
  for (std::size_t i = 0; i < o.counters.size(); ++i) counters[i] += o.counters[i];
  for (std::size_t i = 0; i < o.gauges.size(); ++i) gauges[i].merge(o.gauges[i]);
}

MetricsRegistry::~MetricsRegistry() {
  while (links_.next_ != &links_) links_.next_->unlink();
}

void MetricsRegistry::attach(CounterLink& link, std::uint32_t node, Counter c) noexcept {
  link.unlink();
  link.node_ = node;
  link.counter_ = c;
  link.prev_ = &links_;
  link.next_ = links_.next_;
  links_.next_->prev_ = &link;
  links_.next_ = &link;
}

std::uint64_t MetricsRegistry::linked(std::uint32_t node, Counter c) const noexcept {
  std::uint64_t sum = 0;
  if (!enabled_) return sum;
  for (const CounterLink* l = links_.next_; l != &links_; l = l->next_) {
    if (l->node_ == node && l->counter_ == c) sum += l->value();
  }
  return sum;
}

std::uint64_t MetricsRegistry::total(Counter c) const noexcept {
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    sum += counters_[n * kCounterCount + static_cast<std::size_t>(c)];
  }
  if (!enabled_) return sum;
  for (const CounterLink* l = links_.next_; l != &links_; l = l->next_) {
    if (l->counter_ == c) sum += l->value();
  }
  return sum;
}

void MetricsRegistry::reset() noexcept {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), GaugeStat{});
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.enabled = enabled_;
  s.nodes = nodes_;
  s.counters = counters_;
  s.gauges = gauges_;
  if (!enabled_) return s;
  for (const CounterLink* l = links_.next_; l != &links_; l = l->next_) {
    const std::uint64_t v = l->value();
    if (v == 0) continue;
    // One add() per event would have grown the rows at the first one.
    if (l->node_ >= s.nodes) {
      s.nodes = l->node_ + 1;
      s.counters.resize(s.nodes * kCounterCount, 0);
      s.gauges.resize(s.nodes * kGaugeCount);
    }
    s.counters[l->node_ * kCounterCount + static_cast<std::size_t>(l->counter_)] += v;
  }
  return s;
}

void MetricsRegistry::grow(std::uint32_t node) {
  nodes_ = node + 1;
  counters_.resize(nodes_ * kCounterCount, 0);
  gauges_.resize(nodes_ * kGaugeCount);
}

}  // namespace eblnet::sim
