#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eblnet::sim {

/// Every counter the stack exports, one dense id per event kind. The ids
/// index a flat per-node table (like the scheduler's slot table), so the
/// hot path is `base + id` arithmetic — no hashing and no string lookup.
/// Adding a counter means adding an enumerator here plus a row in the
/// name/layer tables in metrics.cpp (the manifest-schema test will flag a
/// missing name).
enum class Counter : std::uint16_t {
  // --- phy ---
  kPhyTx,               ///< frames radiated
  kPhyRxOk,             ///< frames decoded successfully
  kPhyRxCollision,      ///< receptions corrupted by overlap
  kPhyRxCaptured,       ///< receptions where a stronger newcomer captured the radio
  kPhyRxAbortedByTx,    ///< receptions lost because we started transmitting
  kPhyBelowRxThreshold, ///< signals sensed (>= CS) but too weak to decode
  kPhyCsBusy,           ///< carrier-sense idle->busy transitions
  kPhyBatchCulled,      ///< candidate lanes rejected by the batched phase-1 cull
  kPhyBatchSurvivors,   ///< candidates that reached the exact phase-2 filter

  // --- MAC, shared ---
  kMacTxData,    ///< data-frame transmissions handed to the phy (incl. retries)
  kMacRxData,    ///< frames delivered upward
  kMacRetries,   ///< 802.11 retransmission attempts
  kMacRetryDrops,///< frames dropped at the retry limit
  kMacBackoffSlots, ///< 802.11 backoff slots drawn
  kMacRtsSent,
  kMacCtsSent,
  kMacAckTimeouts,
  kMacDuplicates,
  kMacInternalCollisions, ///< EDCA internal contention: lower AC lost to a higher one

  // --- MAC, TDMA ---
  kTdmaSlotsUsed,
  kTdmaSlotsIdle,
  kTdmaOversizeDrops,

  // --- interface queue ---
  kIfqEnqueued,  ///< packets accepted into the queue
  kIfqDequeued,
  kIfqDropped,   ///< tail drops + RED early drops + displaced victims
  kIfqRedEarlyDrops, ///< subset of kIfqDropped: RED probabilistic drops
  kIfqRemoved,   ///< packets flushed by routing after a link failure
  kIfqFaultFlushed, ///< packets flushed by an injected node crash
  kIfqResidual,  ///< packets still queued when the snapshot was taken

  // --- routing (AODV) ---
  kAodvRreqSent,
  kAodvRreqForwarded,
  kAodvRrepSent,
  kAodvRrepForwarded,
  kAodvRerrSent,
  kAodvHelloSent,
  kAodvDiscoveries,       ///< route discoveries started
  kAodvDiscoveryRounds,   ///< RREQ rounds incl. expanding-ring retries
  kAodvDiscoveryFailures,

  // --- transport (TCP) ---
  kTcpDataSent,   ///< data packets handed to routing (incl. retransmits)
  kTcpRetransmits,
  kTcpRtoFirings,
  kTcpFastRetransmits,
  kTcpAcksReceived,

  // --- EBL application ---
  kAppMessagesGenerated, ///< CBR messages offered to the TCP sender
  kAppMessagesDelivered, ///< new (non-duplicate) data packets at the sink
  kAppBeaconSent,        ///< CAM/BSM broadcast beacons offered to the MAC
  kAppBeaconReceived,    ///< beacons delivered to a Beacon app (all senders)

  // --- fault injection (sim::FaultController) ---
  kFaultCrashes,       ///< node-crash events applied to this node
  kFaultReboots,       ///< reboots after a crash with a duration
  kFaultInjectedDrops, ///< channel deliveries vetoed (blackout / PER)
  kFaultTxSuppressed,  ///< app sends swallowed while the node was down

  kCount
};

/// Sampled gauges: statistics over observed values rather than event
/// counts (queue depth, cwnd, route-acquisition latency).
enum class Gauge : std::uint16_t {
  kIfqDepth,                   ///< queue length sampled at each accepted enqueue
  kAodvRouteAcquisitionSeconds,///< discovery start -> first route installed
  kTcpCwnd,                    ///< congestion window sampled at each new ACK
  kAodvRerouteSeconds,         ///< link failure -> replacement route installed
  kBeaconInterRxSeconds,       ///< gap between consecutive beacons from the same sender
  kChannelBusyRatio,           ///< fraction of each beacon interval the carrier was busy
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);

/// Short stable identifier used as the JSON manifest key ("phy_tx", ...).
const char* counter_name(Counter c) noexcept;
const char* gauge_name(Gauge g) noexcept;

/// Layer bucket for the manifest's per-layer grouping: "phy", "mac",
/// "ifq", "routing", "transport", "app" or "fault".
const char* counter_layer(Counter c) noexcept;

/// Running min/max/sum/count of a sampled gauge.
struct GaugeStat {
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};

  void observe(double v) noexcept {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    ++count;
  }
  double mean() const noexcept { return count ? sum / static_cast<double>(count) : 0.0; }
  void merge(const GaugeStat& o) noexcept {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    sum += o.sum;
    count += o.count;
  }
};

/// Immutable copy of a registry's state, taken at the end of a run and
/// carried in core::TrialResult. Cheap to copy across threads (plain
/// vectors) and mergeable for sweep-level aggregation.
struct MetricsSnapshot {
  bool enabled{false};
  std::uint32_t nodes{0};
  /// nodes * kCounterCount values, row-major by node. Empty when disabled.
  std::vector<std::uint64_t> counters;
  std::vector<GaugeStat> gauges;  ///< nodes * kGaugeCount, row-major by node

  std::uint64_t node_counter(std::uint32_t node, Counter c) const noexcept {
    const std::size_t i = node * kCounterCount + static_cast<std::size_t>(c);
    return i < counters.size() ? counters[i] : 0;
  }
  std::uint64_t total(Counter c) const noexcept {
    std::uint64_t sum = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) sum += node_counter(n, c);
    return sum;
  }
  GaugeStat node_gauge(std::uint32_t node, Gauge g) const noexcept {
    const std::size_t i = node * kGaugeCount + static_cast<std::size_t>(g);
    return i < gauges.size() ? gauges[i] : GaugeStat{};
  }
  GaugeStat gauge(Gauge g) const noexcept {
    GaugeStat s;
    for (std::uint32_t n = 0; n < nodes; ++n) s.merge(node_gauge(n, g));
    return s;
  }

  /// Element-wise accumulation (sweep aggregation). Grows to the larger
  /// node count; `enabled` stays true if either side was.
  void merge(const MetricsSnapshot& o);
};

/// Counter/gauge registry for one simulation, owned by net::Env.
///
/// Hot-path contract (mirrors Env::trace): when disabled — the default —
/// `add`/`sample` are a single predictable branch; when the library is
/// built with EBLNET_METRICS_DISABLED they compile to nothing at all.
/// When enabled, a counter bump is bounds-check + indexed add into a flat
/// per-node table; rows are grown on first use of a node id, never on a
/// repeat visit.
class MetricsRegistry {
 public:
#ifdef EBLNET_METRICS_DISABLED
  static constexpr bool kCompiledIn = false;
#else
  static constexpr bool kCompiledIn = true;
#endif

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on && kCompiledIn; }

  void add(std::uint32_t node, Counter c, std::uint64_t delta = 1) noexcept {
#ifndef EBLNET_METRICS_DISABLED
    if (!enabled_) return;
    if (node >= nodes_) grow(node);
    counters_[node * kCounterCount + static_cast<std::size_t>(c)] += delta;
#else
    (void)node;
    (void)c;
    (void)delta;
#endif
  }

  void sample(std::uint32_t node, Gauge g, double v) noexcept {
#ifndef EBLNET_METRICS_DISABLED
    if (!enabled_) return;
    if (node >= nodes_) grow(node);
    gauges_[node * kGaugeCount + static_cast<std::size_t>(g)].observe(v);
#else
    (void)node;
    (void)g;
    (void)v;
#endif
  }

  std::uint32_t nodes() const noexcept { return nodes_; }

  std::uint64_t node_counter(std::uint32_t node, Counter c) const noexcept {
    if (node >= nodes_) return 0;
    return counters_[node * kCounterCount + static_cast<std::size_t>(c)];
  }
  std::uint64_t total(Counter c) const noexcept;
  GaugeStat node_gauge(std::uint32_t node, Gauge g) const noexcept {
    if (node >= nodes_) return {};
    return gauges_[node * kGaugeCount + static_cast<std::size_t>(g)];
  }

  /// Zero every counter and gauge (rows stay registered).
  void reset() noexcept;

  MetricsSnapshot snapshot() const;

 private:
  void grow(std::uint32_t node);

  bool enabled_{false};
  std::uint32_t nodes_{0};
  std::vector<std::uint64_t> counters_;
  std::vector<GaugeStat> gauges_;
};

}  // namespace eblnet::sim
