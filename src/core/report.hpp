#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"
#include "stats/confidence.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"
#include "trace/delay_analyzer.hpp"

namespace eblnet::core {

/// Plain-text rendering helpers shared by the bench binaries: each bench
/// prints the same rows/series the paper's figure or table shows.
namespace report {

/// Destination and formatting for the print_* helpers: the stream, the
/// decimal precision of the reported values, and the unit suffix. The
/// historical renderings use {os, 6, "s"} for delay series, {os, 4,
/// "Mb/s"} for throughput series, and {os, 4, unit} for summary and
/// confidence rows.
struct ReportContext {
  std::ostream& os;
  int precision{4};
  std::string unit;
};

/// "packet_id delay_s" rows, like the paper's delay-vs-packet-ID figures.
void print_delay_series(const ReportContext& ctx, const std::string& title,
                        const std::vector<trace::DelaySample>& samples,
                        std::size_t max_points = SIZE_MAX);

/// "time_s mbps" rows, like the paper's throughput-vs-time figures.
void print_throughput_series(const ReportContext& ctx, const std::string& title,
                             const stats::TimeSeries& series);

/// One "avg/min/max" row (the per-vehicle statistics given in the text).
void print_summary_row(const ReportContext& ctx, const std::string& label,
                       const stats::Summary& s);

/// The paper's confidence sentence: half-width, level, relative precision.
void print_confidence(const ReportContext& ctx, const std::string& label,
                      const stats::ConfidenceInterval& ci);

void print_header(const ReportContext& ctx, const std::string& title);

// --- JSON run manifests ------------------------------------------------

/// Manifest format version; bumped on any key addition/removal/rename.
/// v2: config gained a "faults" block, trials a "resilience" block, the
/// metrics block the fault counter layer, and "eblnet.resilience" joined
/// the manifest kinds.
/// v3: config gained a "reactive" block (closed-loop follower braking)
/// and "eblnet.traffic" (car-following market-penetration sweeps) joined
/// the manifest kinds.
/// v4: the metrics block gained the "campaign" run-cache counter layer
/// and "eblnet.campaign" (cached sweep orchestration) joined the
/// manifest kinds.
/// v5: config gained gated "beacon" (CAM/BSM beaconing), "blockage"
/// (intersection NLOS) and "edca" (802.11p EDCA MAC) blocks plus the
/// "nakagami_node_streams" flag; the metrics block gained the beacon
/// app counters/gauges (CBR, BRR, inter-reception time) and
/// "eblnet.beacon" joined the manifest kinds.
/// v6: the "eblnet.campaign" manifest lost the engine-partition count
/// it recorded; every run now takes the one serial path.
/// v7: the metrics block lost the always-zero "campaign" run-cache
/// counter layer (the run cache counts in plain members now), and the
/// streamed "eblnet.campaign" trial manifest is gone; the kind survived
/// only on bench/campaign_sweep's timing JSON, which went with the run
/// cache (no manifest key moved, so the version stayed).
/// v8: "config" is an array of strings, the resolved config's canonical
/// scenario text (core::canonical_scenario_text, then also the run-cache
/// key's input) one "name = value" line each, instead of a hand-picked
/// object.
/// v9: the "fault" metrics layer lost the "fault_corruptions" and
/// "fault_reorders" counters with the queue-chaos fault kind.
inline constexpr int kManifestSchemaVersion = 9;

/// Write the versioned JSON run manifest for one finished trial:
/// config, seed, per-layer metric counters, delay/throughput summaries
/// and the stopping-distance verdict. The metrics block reflects
/// TrialResult::metrics (all-zero when the trial ran without
/// `enable_metrics`).
void write_json(std::ostream& os, const TrialResult& r);

/// Write a sweep manifest: every trial's manifest plus an aggregate block
/// (summed events and per-layer counters merged across trials).
void write_sweep_json(std::ostream& os, const std::string& name,
                      std::span<const TrialResult> results);

/// One cell of a resilience sweep: a faulted re-run of a paper trial at
/// one grid point (fault kind x magnitude), plus the fault-free
/// first-packet delay of the same trial for inflation accounting.
struct ResilienceCell {
  std::string label;  ///< human-readable cell id, e.g. "crash@t=4s"
  std::string axis;   ///< grid axis: "crash_at_s", "blackout_s", "per", ...
  double value{0.0};  ///< axis value at this cell
  /// Fault-free p1 initial-packet delay of the same trial; -1 = unknown.
  double baseline_initial_delay_s{-1.0};
  TrialResult result;  ///< the faulted run
};

/// Write a resilience-sweep manifest ("eblnet.resilience"): the
/// fault-free baseline trials in full, then one compact object per grid
/// cell with its resilience block, first-packet delay inflation over the
/// baseline, and the stopping-distance-under-failure verdict.
void write_resilience_json(std::ostream& os, const std::string& name,
                           std::span<const TrialResult> baselines,
                           std::span<const ResilienceCell> cells);

/// Write a traffic-sweep manifest ("eblnet.traffic"): the closed-loop
/// car-following configuration shared by the sweep, then one compact row
/// per market-penetration cell (shockwave speed, congestion onset,
/// warning counts).
void write_traffic_json(std::ostream& os, const std::string& name, const TrafficConfig& cfg,
                        std::span<const TrafficRunResult> cells);

/// Convenience: open `path`, write the manifest, throw on I/O failure.
void write_json_file(const std::string& path, const TrialResult& r);
void write_sweep_json_file(const std::string& path, const std::string& name,
                           std::span<const TrialResult> results);
void write_resilience_json_file(const std::string& path, const std::string& name,
                                std::span<const TrialResult> baselines,
                                std::span<const ResilienceCell> cells);
void write_traffic_json_file(const std::string& path, const std::string& name,
                             const TrafficConfig& cfg, std::span<const TrafficRunResult> cells);

}  // namespace report
}  // namespace eblnet::core
