#include "core/campaign/campaign.hpp"

#include <optional>
#include <ostream>

#include "core/json_writer.hpp"
#include "core/report.hpp"

namespace eblnet::core::campaign {

namespace {

std::uint64_t xorshift64(std::uint64_t& state) {
  // Marsaglia xorshift64*: enough randomness for index sampling, zero
  // dependencies, and the same stream on every platform.
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

Cell make_cell(const ScenarioConfig& base, const std::vector<Axis>& axes,
               const std::vector<std::size_t>& choice) {
  ScenarioBuilder b{base};
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const auto& [point_label, mutate] = axes[a].points[choice[a]];
    if (!label.empty()) label += '/';
    label += axes[a].name;
    label += '=';
    label += point_label;
    mutate(b);
  }
  return Cell{std::move(label), b.build()};
}

}  // namespace

std::vector<Cell> SweepSpec::grid() const {
  std::size_t count = 1;
  for (const Axis& a : axes) count *= a.points.size();  // empty axis -> empty grid
  if (axes.empty() || count == 0) return {};

  std::vector<Cell> cells;
  cells.reserve(count);
  std::vector<std::size_t> choice(axes.size(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    cells.push_back(make_cell(base, axes, choice));
    // Row-major increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++choice[a] < axes[a].points.size()) break;
      choice[a] = 0;
    }
  }
  return cells;
}

std::vector<Cell> SweepSpec::sample(std::size_t n, std::uint64_t seed) const {
  if (axes.empty()) return {};
  for (const Axis& a : axes)
    if (a.points.empty()) return {};

  std::uint64_t state = seed ? seed : 0x9e3779b97f4a7c15ULL;
  std::vector<Cell> cells;
  cells.reserve(n);
  std::vector<std::size_t> choice(axes.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < axes.size(); ++a)
      choice[a] = static_cast<std::size_t>(xorshift64(state) % axes[a].points.size());
    cells.push_back(make_cell(base, axes, choice));
  }
  return cells;
}

Runner::Runner(RunCache& cache, unsigned jobs) : cache_{cache}, runner_{jobs} {}

CampaignOutcome Runner::run(const SweepSpec& spec, std::ostream* manifest) {
  const std::vector<Cell> cells = spec.grid();
  return run_cells(spec.name, cells, manifest);
}

CampaignOutcome Runner::run_cells(const std::string& name, std::span<const Cell> cells,
                                  std::ostream* manifest) {
  // Partition: one cache probe per cell, in order. Hits come back
  // reconstructed; misses are queued for the pool.
  CampaignOutcome out;
  out.results.resize(cells.size());
  std::vector<bool> is_hit(cells.size(), false);
  std::vector<std::size_t> miss_index;  // cell index of the i-th miss
  std::vector<TrialSpec> miss_specs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (auto cached = cache_.load(cells[i].config, cells[i].label)) {
      out.results[i] = std::move(*cached);
      is_hit[i] = true;
      ++out.hits;
    } else {
      miss_index.push_back(i);
      miss_specs.push_back(TrialSpec{cells[i].config, cells[i].label});
      ++out.misses;
    }
  }

  // Only the misses touch the thread pool.
  core::Runner::AsyncTrials batch = runner_.start_trials(std::move(miss_specs));

  // Stream the manifest in cell order as results land: hits immediately,
  // each miss when its future resolves (and commit it to the cache).
  // Nothing run-dependent (hits, misses, timings) is written, so cold
  // and warm manifests are byte-identical.
  std::optional<JsonWriter> w;
  JsonWriter* wp = nullptr;
  if (manifest != nullptr) {
    wp = &w.emplace(*manifest);
    wp->begin_object();
    wp->field("schema_version", static_cast<std::int64_t>(report::kManifestSchemaVersion));
    wp->field("kind", "eblnet.campaign");
    wp->field("name", name);
    wp->field("fingerprint", cache_.fingerprint());
    wp->field("cell_count", static_cast<std::uint64_t>(cells.size()));
    wp->key("cells");
    wp->begin_array();
  }

  std::size_t next_miss = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!is_hit[i]) {
      TrialResult r = batch.futures[next_miss].get();
      ++next_miss;
      cache_.store(cells[i].config, r);
      out.results[i] = std::move(r);
    }
    if (wp != nullptr) {
      wp->begin_object();
      wp->field("label", cells[i].label);
      wp->field("key", cache_.key_for(cells[i].config).hex());
      wp->key("trial");
      report::write_trial_json(*wp, out.results[i]);
      wp->end_object();
      manifest->flush();  // the streaming contract: each cell lands as written
    }
  }

  if (wp != nullptr) {
    wp->end_array();
    std::uint64_t events = 0;
    sim::MetricsSnapshot merged;
    for (const TrialResult& r : out.results) {
      events += r.events_executed;
      merged.merge(r.metrics);
    }
    wp->key("aggregate");
    wp->begin_object();
    wp->field("events_executed", events);
    wp->key("metrics");
    report::write_metrics_json(*wp, merged);
    wp->end_object();
    wp->end_object();
    *manifest << '\n';
    manifest->flush();
  }
  return out;
}

std::vector<TrialResult> run_cached_trials(RunCache& cache, std::span<const TrialSpec> specs,
                                           unsigned jobs) {
  std::vector<Cell> cells;
  cells.reserve(specs.size());
  for (const TrialSpec& s : specs) cells.push_back(Cell{s.name, s.config});
  Runner runner{cache, jobs};
  return std::move(runner.run_cells("", cells, nullptr).results);
}

}  // namespace eblnet::core::campaign
