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

/// A counter its owner keeps itself instead of calling add() once per
/// event, for events that do not all run: app::TcpCbrFeeder's offered
/// messages, whose ticks may be muted (sim::Scheduler::mute). While the
/// registry is enabled, snapshot(), node_counter() and total() add
/// value() to the link's (node, counter), allocating nothing, so each
/// read equals what one add() per event would give over a run with
/// metrics on from the start. reset() does not rewind a link. A link
/// detaches itself when destroyed, and the registry detaches every link
/// when it is.
class CounterLink {
 public:
  CounterLink(const CounterLink&) = delete;
  CounterLink& operator=(const CounterLink&) = delete;

  /// Events counted so far.
  virtual std::uint64_t value() const noexcept = 0;

 protected:
  CounterLink() noexcept = default;
  ~CounterLink() { unlink(); }

 private:
  friend class MetricsRegistry;
  void unlink() noexcept {
    prev_->next_ = next_;
    next_->prev_ = prev_;
    prev_ = next_ = this;
  }

  CounterLink* prev_{this};
  CounterLink* next_{this};
  std::uint32_t node_{0};
  Counter counter_{};
};

/// Counter/gauge registry for one simulation, owned by net::Env.
///
/// Hot-path contract (mirrors Env::trace): when disabled — the default —
/// `add`/`sample` are a single predictable branch; when the library is
/// built with EBLNET_METRICS_DISABLED they compile to nothing at all.
/// When enabled, a counter bump is bounds-check + indexed add into a flat
/// per-node table; rows are grown on first use of a node id, never on a
/// repeat visit. A counter whose events may not run one by one is kept
/// by its owner and read through a CounterLink instead.
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
  ~MetricsRegistry();

  /// Read `link` as `node`'s counter `c` from now on (see CounterLink).
  void attach(CounterLink& link, std::uint32_t node, Counter c) noexcept;

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
    const std::uint64_t added =
        node < nodes_ ? counters_[node * kCounterCount + static_cast<std::size_t>(c)] : 0;
    return links_.next_ == &links_ ? added : added + linked(node, c);
  }
  std::uint64_t total(Counter c) const noexcept;
  GaugeStat node_gauge(std::uint32_t node, Gauge g) const noexcept {
    if (node >= nodes_) return {};
    return gauges_[node * kGaugeCount + static_cast<std::size_t>(g)];
  }

  /// Zero every counter and gauge (rows stay registered); links keep
  /// their values.
  void reset() noexcept;

  MetricsSnapshot snapshot() const;

 private:
  void grow(std::uint32_t node);
  /// The sum of the links for (node, c); 0 while disabled.
  std::uint64_t linked(std::uint32_t node, Counter c) const noexcept;

  /// Sentinel of the circular list of attached links.
  struct LinkHead final : CounterLink {
    std::uint64_t value() const noexcept override { return 0; }
  };

  LinkHead links_;
  bool enabled_{false};
  std::uint32_t nodes_{0};
  std::vector<std::uint64_t> counters_;
  std::vector<GaugeStat> gauges_;
};

}  // namespace eblnet::sim
