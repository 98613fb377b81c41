#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario.hpp"

namespace eblnet::bench {

/// Command-line options shared by every scenario bench:
///
///   --json <path>     write a versioned JSON run manifest (enables metrics)
///   --seed <n>        override the scenario seed(s)
///   --jobs <n>        worker threads for the trials (0 = auto)
///   --quiet           suppress the text report (JSON still written)
///   --help            usage
///   full              the bench's full mode (perf_scale, traffic_sweep;
///                     the others ignore it)
///
/// With no flags a bench behaves exactly as it always has: text to
/// stdout, no JSON, default seeds and job count.
struct Options {
  std::string program;    ///< argv[0], for usage messages
  std::string json_path;  ///< empty = no manifest requested
  std::uint64_t seed{0};
  bool seed_set{false};
  unsigned jobs{0};  ///< 0 = EBLNET_JOBS / hardware_concurrency
  bool quiet{false};
  bool full{false};  ///< the argument `full` was given

  /// Parse argv. Prints usage and exits on --help (status 0) or on a
  /// malformed/unknown flag or an argument other than `full` (status 2)
  /// — including a --seed or --jobs value that is not a plain decimal
  /// integer in range. A --json path is opened for appending (created,
  /// not truncated) before anything is simulated; when that fails it
  /// prints `<program>: --json <path>: <reason>` and exits 2.
  static Options parse(int argc, char** argv);

  bool want_json() const noexcept { return !json_path.empty(); }

  /// std::cout, or a sink stream under --quiet.
  std::ostream& out() const;

  /// Fold the flags into a scenario config: seed override, and metrics
  /// collection whenever a JSON manifest was requested.
  void apply(core::ScenarioConfig& cfg) const {
    if (seed_set) cfg.seed = seed;
    if (want_json()) cfg.enable_metrics = true;
  }

  /// `cfg` with the flags folded in (apply), as a trial spec named `name`.
  core::TrialSpec spec(core::ScenarioConfig cfg, std::string name = {}) const {
    apply(cfg);
    return {std::move(cfg), std::move(name)};
  }
};

/// The one way a bench runs trials: on core::Runner with --jobs workers,
/// results in spec order. --seed is not applied here: the specs carry it
/// (see spec()).
std::vector<core::TrialResult> run(std::span<const core::TrialSpec> specs, const Options& opts);

}  // namespace eblnet::bench
