#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"
#include "sim/shard.hpp"

namespace eblnet::core {

/// Per-run observability for a sharded execution: how the conservative
/// engine behaved, not what the simulation computed (that is the
/// TrialResult / TrafficRunResult, identical to a serial run).
struct ShardRunDiagnostics {
  std::size_t shards{1};
  double lookahead_us{0.0};  ///< promise lift, microseconds
  std::vector<sim::ShardStats> per_shard;
  std::uint64_t seam_messages{0};   ///< cross-shard posts delivered
  std::uint64_t broadcasts{0};      ///< local transmits, summed over shards
  std::uint64_t remote_injects{0};  ///< seam replays executed
  std::uint64_t total_events{0};    ///< scheduler events, summed over shards
  double stall_seconds_total{0.0};  ///< wall time shards spent unable to advance

  /// Fraction of broadcasts that had to cross at least one seam.
  double seam_crossing_ratio() const noexcept {
    return broadcasts == 0 ? 0.0
                           : static_cast<double>(seam_messages) / static_cast<double>(broadcasts);
  }
};

/// Run the intersection scenario space-sharded over `shards` conservative
/// shards and extract the TrialResult. `shards <= 1` falls through to
/// run_trial() unchanged (bit-identical to the serial engine, including
/// the shared-Rng draw order). `shards > 1` forces per-node RNG streams
/// (ScenarioConfig::node_rng_streams) on a copy of the config — the
/// property that makes the sharded run reproduce a serial run with the
/// same flag; compare against run_trial with node_rng_streams = true.
///
/// Rejected with shards > 1 (throws std::invalid_argument): fault plans,
/// reactive braking, beaconing, and Nakagami fading on the shared stream
/// (without nakagami_node_streams) — each couples shards through state
/// the seam protocol does not replicate. Keyed pair-stream Nakagami
/// shards.
///
/// Each shard's world is built with EblScenario's assembly functions
/// (core/scenario.hpp).
TrialResult run_sharded_trial(const ScenarioConfig& config, std::size_t shards,
                              std::string name = {}, ShardRunDiagnostics* diag = nullptr);

/// Sharded counterpart of a TrafficScenario run: one TrafficScenario per
/// shard replicates the IDM flow (bit-identical dynamics everywhere),
/// radio stacks are partitioned by lane, and warned-policy installations
/// are mirrored across seams. `shards <= 1` runs the serial
/// TrafficScenario unchanged.
TrafficRunResult run_sharded_traffic(const TrafficConfig& config, std::size_t shards,
                                     std::string name = {}, ShardRunDiagnostics* diag = nullptr);

}  // namespace eblnet::core
