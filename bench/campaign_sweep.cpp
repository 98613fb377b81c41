// Bench: the content-addressed run cache end to end. Times the same
// sweep three ways — cold (empty cache: every cell simulated), warm
// (every cell served from disk), and partially warm (a superset sweep
// where only the new cells are simulated) — and checks the headline
// property the cache is built on: the warm sweep manifest
// (write_sweep_json) is byte-for-byte the cold one, because a cached
// result reconstructs bit-identically.
//
// Modes:
//   campaign_sweep           quick 4-cell grid over trial 1 (CI-sized);
//                            the superset adds a seed (6 cells, 4 warm)
//   campaign_sweep full      64-cell grid over trial 3 (seed x packet
//                            size x platoon size x propagation), the
//                            acceptance configuration; the superset adds
//                            four more seeds (96 cells, 64 warm)
//
// The sweep runs inside <cache-dir>/campaign_sweep, which is wiped at
// startup so "cold" is genuinely cold; --cache-dir relocates the parent.
// --json appends a "kind": "eblnet.campaign" timing entry for
// scripts/bench.sh --campaign.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "core/campaign/run_cache.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;
namespace campaign = core::campaign;

namespace {

struct Phase {
  std::string manifest;  ///< write_sweep_json of the run's results
  double wall_s{0.0};
  std::uint64_t events{0};  ///< sum over the run's results (hits included)
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t bytes_read{0};
  std::uint64_t bytes_written{0};

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

/// The sweep, row-major with the last axis fastest: `seeds` x packet
/// size (full: x platoon size x propagation) over the base trial.
/// Durations are shortened — the cache does not care how long a cell
/// runs, and the bench's point is the hit path.
std::vector<core::TrialSpec> make_grid(bool full, std::uint64_t seeds) {
  core::ScenarioConfig cfg = full ? core::trial3_config() : core::trial1_config();
  cfg.duration = sim::Time::seconds(std::int64_t{full ? 8 : 6});
  cfg.enable_metrics = true;
  std::vector<core::TrialSpec> grid;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const std::size_t bytes : {500, 1000}) {
      cfg.seed = seed;
      cfg.packet_bytes = bytes;
      const std::string label =
          "seed=" + std::to_string(seed) + "/packet_bytes=" + std::to_string(bytes);
      if (!full) {
        grid.push_back({cfg, label});
        continue;
      }
      for (const std::size_t platoon : {3, 4}) {
        for (const core::PropagationType p :
             {core::PropagationType::kTwoRay, core::PropagationType::kNakagami}) {
          cfg.platoon_size = platoon;
          cfg.propagation = p;
          grid.push_back({cfg, label + "/platoon=" + std::to_string(platoon) +
                                   "/propagation=" + core::to_string(p)});
        }
      }
    }
  }
  return grid;
}

/// One timed run of `grid` with a fresh RunCache (fresh counters) over a
/// shared on-disk store.
Phase run_phase(const std::filesystem::path& store, const std::string& name,
                const std::vector<core::TrialSpec>& grid, const bench::Options& opts) {
  campaign::RunCache cache{store};
  std::ostringstream manifest;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<core::TrialResult> results =
      campaign::run_cached_trials(cache, grid, opts.jobs);
  core::report::write_sweep_json(manifest, name, results);
  const auto t1 = std::chrono::steady_clock::now();

  Phase p;
  p.manifest = manifest.str();
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const core::TrialResult& r : results) p.events += r.events_executed;
  p.hits = cache.hits();
  p.misses = cache.misses();
  p.bytes_read = cache.bytes_read();
  p.bytes_written = cache.bytes_written();
  return p;
}

void print_phase(std::ostream& os, const char* label, const Phase& p, std::size_t cells) {
  os << std::left << std::setw(10) << label << std::right << std::setw(7) << cells
     << std::setw(7) << p.hits << std::setw(8) << p.misses << std::fixed << std::setprecision(3)
     << std::setw(10) << p.wall_s << std::setprecision(0) << std::setw(14) << p.events_per_sec()
     << '\n';
}

void write_phase(core::JsonWriter& w, const Phase& p, std::size_t cells) {
  w.begin_object();
  w.field("cells", std::uint64_t{cells});
  w.field("wall_s", p.wall_s);
  w.field("events", p.events);
  w.field("events_per_sec", p.events_per_sec());
  w.field("hits", p.hits);
  w.field("misses", p.misses);
  w.field("bytes_read", p.bytes_read);
  w.field("bytes_written", p.bytes_written);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const bool full = opts.full;

  const std::string name = full ? "campaign_sweep/full" : "campaign_sweep/quick";
  const std::vector<core::TrialSpec> grid = make_grid(full, full ? 8 : 2);
  const std::vector<core::TrialSpec> superset = make_grid(full, full ? 12 : 3);
  const std::size_t cells = grid.size();
  const std::size_t super_cells = superset.size();

  opts.create_cache_dir();
  // A dedicated store under the cache dir, wiped so cold means cold.
  const std::filesystem::path store = std::filesystem::path{opts.cache_dir} / "campaign_sweep";
  Phase cold, warm, partial;
  try {
    std::filesystem::remove_all(store);
    cold = run_phase(store, name, grid, opts);
    warm = run_phase(store, name, grid, opts);
    partial = run_phase(store, name, superset, opts);
  } catch (const std::exception& e) {
    std::cerr << opts.program << ": " << e.what() << '\n';
    return 1;
  }

  const bool identical = cold.manifest == warm.manifest;
  const double speedup = warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0;

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Campaign cache sweep — " + name);
  os << std::left << std::setw(10) << "phase" << std::right << std::setw(7) << "cells"
     << std::setw(7) << "hits" << std::setw(8) << "misses" << std::setw(10) << "wall_s"
     << std::setw(14) << "events/s" << '\n';
  print_phase(os, "cold", cold, cells);
  print_phase(os, "warm", warm, cells);
  print_phase(os, "partial", partial, super_cells);
  os << "\nwarm speedup: " << std::fixed << std::setprecision(1) << speedup
     << "x   warm manifest byte-identical to cold: " << (identical ? "yes" : "NO") << '\n';

  if (!identical) {
    std::cerr << "error: warm manifest differs from cold manifest\n";
    return 1;
  }
  if (partial.hits != cells || partial.misses != super_cells - cells) {
    std::cerr << "error: partial-warm partition expected " << cells << " hits + "
              << (super_cells - cells) << " misses, got " << partial.hits << " + "
              << partial.misses << '\n';
    return 1;
  }

  if (opts.want_json()) {
    std::ofstream out{opts.json_path};
    if (!out) {
      std::cerr << "error: could not write " << opts.json_path << '\n';
      return 1;
    }
    core::JsonWriter w{out};
    w.begin_object();
    w.field("schema_version", std::uint64_t{core::report::kManifestSchemaVersion});
    w.field("kind", "eblnet.campaign");
    w.field("sweep", name);
    w.field("jobs", std::uint64_t{opts.jobs});
    w.key("cold");
    write_phase(w, cold, cells);
    w.key("warm");
    write_phase(w, warm, cells);
    w.key("partial");
    write_phase(w, partial, super_cells);
    w.field("warm_speedup", speedup);
    w.field("byte_identical", identical);
    w.end_object();
    out << '\n';
    os << "wrote " << opts.json_path << '\n';
  }
  return 0;
}
