#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace core = eblnet::core;

/// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// How one batch of a workload is run.
struct RunOptions {
  std::uint64_t seed{1};  ///< the --seed argument; every scenario seed derives from it
  bool traced{false};     ///< metrics registry on, spans kept, per-layer numbers computed
  unsigned jobs{0};       ///< runner workers; 0 = the workload's own default
  std::uint64_t scenario_base{0};  ///< first scenario id of this batch's spans
};

/// One per-layer metric of a traced batch.
struct LayerMetric {
  std::string unit;
  double value{0.0};
};

/// What one batch produced. `failures` holds one line per failed
/// scenario (it threw, or failed its workload's correctness check).
struct BatchOutcome {
  std::size_t attempted{0};
  std::vector<std::string> failures;
  /// FNV-1a over the simulated outputs only (never over host-side or
  /// implementation counts such as events executed), so a speed-only
  /// change must leave it unchanged.
  std::uint64_t fingerprint{0};
  double wall_s{0.0};   ///< set-up + run + analysis + report + teardown
  double setup_s{0.0};  ///< summed scenario construction time
  /// Per-layer metrics by name; filled on traced batches only.
  std::map<std::string, LayerMetric> layers;
};

/// Run one batch of `workload` (one of workload_names(); throws
/// std::invalid_argument otherwise).
BatchOutcome run_workload(const std::string& workload, const RunOptions& opts, Tracer& tracer);

// --- inputs (exposed for the self-tests) ---------------------------------

/// paper_sweep's batch: for each derived seed, trials 1, 2, 3 in order.
std::vector<core::TrialSpec> paper_specs(std::uint64_t seed);

/// Run paper_sweep on explicit specs (a multiple of three, trials 1-2-3
/// per seed) — the self-tests feed it deliberately wrong trials.
BatchOutcome run_paper_specs(const std::vector<core::TrialSpec>& specs, const RunOptions& opts,
                             Tracer& tracer);

/// One intersection scenario run phase by phase, the way every workload
/// runs it (the benchmark's copy of core::run_trial, split so each phase
/// can be timed). The self-tests hold it equal to core::run_trial.
core::TrialResult run_phased_trial(const core::TrialSpec& spec);

/// The fingerprint a workload folds in for one trial's simulated outputs.
std::uint64_t trial_fingerprint(const core::TrialResult& r);

/// How many batches a run of `workload` times for a `seconds` budget. It
/// depends on the workload and the budget only, never on how fast the
/// code under test runs, so two commits are compared over as many batches.
std::size_t timed_batches(const std::string& workload, double seconds);

// --- correctness checks: "" when the output passes ------------------------

/// Findings 1, 2 and 3 of the paper, and the TDMA half of finding 6
/// (the first notice arrives after the headway is consumed), on one
/// seed's trials 1, 2, 3.
std::string check_paper_seed(const core::TrialResult& t1, const core::TrialResult& t2,
                             const core::TrialResult& t3);
/// The 802.11 half of finding 6 over a batch's trial 3 runs: the median
/// headway fraction stays well under 100 %. It is checked on the median
/// because a single run's first-packet delay is one AODV discovery
/// sample: about 3 % of seeds put it near 85 % of the headway.
std::string check_paper_batch(const std::vector<core::TrialResult>& trial3s);
/// highway_grid: frames were decoded and route requests flooded beyond
/// their originators. (End-to-end delivery is no check here: each lead
/// opens ~10,000 links at once, and on about one seed in six every one
/// of the 20,000 route discoveries fails within the 16 s run.)
std::string check_highway(std::uint64_t phy_rx_ok, std::uint64_t rreq_forwarded);
/// traffic_idm cell: the shockwave runs upstream, and equipped fleets
/// receive warnings.
std::string check_traffic(const core::TrafficRunResult& r);
/// beacon_dense cell: near line-of-sight pairs hear more than far
/// around-the-corner pairs.
std::string check_beacon(double near_los_brr, double far_nlos_brr);

}  // namespace perfbench
