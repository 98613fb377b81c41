#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign/run_cache.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"

namespace eblnet::core::campaign {

/// One fully-configured point of a sweep.
struct Cell {
  std::string label;
  ScenarioConfig config;
};

/// One sweep dimension: named points that each mutate a ScenarioBuilder
/// (so any builder knob — seed, packet size, platoon size, propagation,
/// fault plan, ... — can be an axis). Axis and point names combine into
/// the cell labels ("seed=3/packet_bytes=500/...").
struct Axis {
  std::string name;
  using Mutator = std::function<void(ScenarioBuilder&)>;
  std::vector<std::pair<std::string, Mutator>> points;

  Axis& point(std::string label, Mutator m) {
    points.emplace_back(std::move(label), std::move(m));
    return *this;
  }
};

/// A sweep specification: a base scenario plus axes, expanded either as
/// the full cartesian grid or as a seeded random sample of it. Cell
/// order is deterministic (row-major over the axes in declaration order;
/// the last axis varies fastest), which is the order the campaign
/// manifest streams in.
struct SweepSpec {
  std::string name;
  ScenarioConfig base;
  std::vector<Axis> axes;

  Axis& axis(std::string axis_name) {
    axes.push_back(Axis{std::move(axis_name), {}});
    return axes.back();
  }

  /// The full cartesian grid.
  std::vector<Cell> grid() const;

  /// `n` cells drawn uniformly (with replacement) from the grid's index
  /// space by a self-contained xorshift stream — deterministic in
  /// (axes, n, seed) and independent of the scenario seeds.
  std::vector<Cell> sample(std::size_t n, std::uint64_t seed) const;
};

/// Outcome of one campaign run. `results` is in cell order; hit/miss
/// counts are this run's partition (the cache's counters keep totals
/// across runs).
struct CampaignOutcome {
  std::vector<TrialResult> results;
  std::uint64_t hits{0};
  std::uint64_t misses{0};
};

/// The sweep orchestrator: partitions cells into cache hits and misses,
/// multiplexes only the misses onto the PR-1 ThreadPool (via
/// core::Runner::start_trials), commits each finished miss, and — when
/// `manifest` is given — streams the aggregated "eblnet.campaign"
/// manifest in cell order as results land. The manifest carries no
/// hit/miss or timing data, so a warm re-run's bytes are identical to
/// the cold run's.
class Runner {
 public:
  /// `jobs` resolves exactly as in core::Runner.
  explicit Runner(RunCache& cache, unsigned jobs = 0);

  CampaignOutcome run(const SweepSpec& spec, std::ostream* manifest = nullptr);
  CampaignOutcome run_cells(const std::string& name, std::span<const Cell> cells,
                            std::ostream* manifest = nullptr);

  const RunCache& cache() const noexcept { return cache_; }

 private:
  RunCache& cache_;
  core::Runner runner_;
};

/// Drop-in cached equivalent of core::Runner{jobs}.run_trials:
/// serve hits, simulate and commit misses, return results in spec order.
/// Existing sweep benches route through this behind their --cache flag;
/// the results (and therefore their reports) are byte-identical to the
/// uncached path.
std::vector<TrialResult> run_cached_trials(RunCache& cache, std::span<const TrialSpec> specs,
                                           unsigned jobs = 0);

}  // namespace eblnet::core::campaign
