#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/metrics.hpp"
#include "stats/confidence.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"
#include "trace/delay_analyzer.hpp"

namespace eblnet::core {

/// Per-layer counter/gauge snapshot carried by a TrialResult. Empty (all
/// zero) unless the scenario ran with `enable_metrics`.
using TrialMetrics = sim::MetricsSnapshot;

/// Everything the paper reports for one trial, extracted from a finished
/// EblScenario run.
struct TrialResult {
  std::string name;
  ScenarioConfig config;

  /// Per-node, per-layer counters and gauges captured at end of run
  /// (residual interface-queue occupancy is folded in as kIfqResidual so
  /// the queue conservation identity holds exactly).
  TrialMetrics metrics;

  /// One-way delay samples per receiver (seq-ordered), per platoon.
  std::vector<trace::DelaySample> p1_middle;
  std::vector<trace::DelaySample> p1_trailing;
  std::vector<trace::DelaySample> p2_middle;
  std::vector<trace::DelaySample> p2_trailing;

  /// Platoon throughput time series (Mb/s, 100 ms samples).
  stats::TimeSeries p1_throughput;
  stats::TimeSeries p2_throughput;

  /// 95 % CI of the platoon-1 mean throughput over its communication
  /// window, via batch means (the paper's "confidence level analysis").
  stats::ConfidenceInterval p1_throughput_ci;
  stats::ConfidenceInterval p2_throughput_ci;

  /// Delay of the first packet delivered to each platoon-1 follower —
  /// the figure the stopping-distance analysis (§III.E) hinges on.
  double p1_initial_packet_delay_s{-1.0};

  /// Trace-level accounting.
  std::uint64_t ifq_drops{0};
  std::uint64_t phy_collisions{0};
  std::uint64_t mac_retry_drops{0};
  /// Routing-protocol frames actually radiated (RREQ/RREP/RERR/HELLO/
  /// DSDV updates at the MAC layer) — the control overhead.
  std::uint64_t routing_control_sends{0};
  /// Data frames radiated (including MAC retransmissions).
  std::uint64_t data_frame_sends{0};
  /// Scheduler events executed over the whole run.
  std::uint64_t events_executed{0};

  /// Resilience under injected faults (sim::FaultPlan). `faults_enabled`
  /// mirrors `!config.faults.empty()`; the delivery ratios are computed
  /// from the trace even for fault-free runs so baseline and faulted
  /// cells compare like-for-like, while the windowed ratios and the
  /// counters stay at their inert defaults without a plan.
  struct Resilience {
    bool faults_enabled{false};

    /// Mean seconds from a detected link failure to the first completed
    /// replacement route discovery (Gauge::kAodvRerouteSeconds, averaged
    /// over every reroute in the run). -1 when no reroute completed or
    /// metrics were disabled.
    double time_to_reroute_s{-1.0};

    /// Application-level delivery ratio: of the data packets the delay
    /// analyzer counts as offered (first agent send at the source), the
    /// share received at their IP destination's agent.
    /// -1 when no packets were offered.
    double delivery_ratio{-1.0};
    /// Delivery ratio restricted to packets *sent* inside / after the
    /// outage window. -1 when the window is empty or nothing was offered
    /// in the corresponding span.
    double delivery_ratio_during_outage{-1.0};
    double delivery_ratio_after_outage{-1.0};

    /// Outage window: the hull [start, end] (seconds) of every scheduled
    /// fault event; a permanent fault (zero duration) extends the window
    /// to the end of the run. -1/-1 when the plan is empty.
    double outage_start_s{-1.0};
    double outage_end_s{-1.0};

    /// FaultController bookkeeping — exact even with metrics disabled.
    std::uint64_t crashes{0};
    std::uint64_t injected_drops{0};
    std::uint64_t jam_bursts{0};
  };
  Resilience resilience;

  // --- derived helpers ---
  std::vector<trace::DelaySample> p1_all() const;
  std::vector<trace::DelaySample> p2_all() const;
  stats::Summary p1_delay_summary() const { return trace::DelayAnalyzer::summarize(p1_all()); }
  stats::Summary p2_delay_summary() const { return trace::DelayAnalyzer::summarize(p2_all()); }
  stats::Summary p1_throughput_summary() const { return p1_throughput.summarize(); }
  stats::Summary p2_throughput_summary() const { return p2_throughput.summarize(); }

  /// Steady-state delay estimate: mean over samples after the transient
  /// (`skip` leading packets per flow).
  double p1_steady_state_delay_s(std::size_t skip = 50) const;

  /// Transient length of the platoon-1 middle-vehicle flow detected by
  /// MSER-5 (the paper eyeballs "approximately packet 50" from the
  /// figures; this computes it). Returns the first steady packet index.
  std::size_t p1_transient_end_mser() const;
};

/// The paper's three trials.
ScenarioConfig trial1_config();  ///< 1000 B, TDMA (the base trial)
ScenarioConfig trial2_config();  ///< 500 B, TDMA
ScenarioConfig trial3_config();  ///< 1000 B, 802.11

/// Configuration for an arbitrary (packet size, MAC) point, sharing the
/// calibrated traffic/stack parameters of the paper trials.
ScenarioConfig make_trial_config(std::size_t packet_bytes, MacType mac);

/// Run a configured scenario to completion and extract a TrialResult.
/// `after_run`, when provided, is invoked on the finished scenario before
/// it is torn down (e.g. to export a Nam animation or inspect agents).
TrialResult run_trial(const ScenarioConfig& config, std::string name = {},
                      const std::function<void(EblScenario&)>& after_run = {});

/// Fold `node`'s residual interface-queue occupancy into `metrics`
/// (Counter::kIfqResidual), so the queue conservation identity
/// enqueued == dequeued + dropped + removed + residual closes at the end
/// of a run.
void fold_ifq_residual(sim::MetricsRegistry& metrics, const net::Node& node);

/// Build a TrialResult from the raw artefacts of a finished run — the
/// back half of run_trial. `faults` may be null; the controller-sourced
/// counters then stay zero.
TrialResult extract_trial_result(const ScenarioConfig& config, std::string name,
                                 const trace::TraceStore& records,
                                 stats::TimeSeries p1_throughput, stats::TimeSeries p2_throughput,
                                 TrialMetrics metrics, std::uint64_t events_executed,
                                 const sim::FaultController* faults);

}  // namespace eblnet::core
