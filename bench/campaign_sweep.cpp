// Bench: the content-addressed run cache end to end. Times the same
// sweep three ways — cold (empty cache: every cell simulated), warm
// (every cell served from disk), and partially warm (a superset sweep
// where only the new cells are simulated) — and checks the headline
// property the cache is built on: the warm manifest is byte-for-byte the
// cold one, because a cached result reconstructs bit-identically.
//
// Modes:
//   campaign_sweep           quick 4-cell grid over trial 1 (CI-sized)
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
#include "core/campaign/campaign.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;
namespace campaign = core::campaign;

namespace {

struct Phase {
  std::string manifest;  ///< the streamed campaign manifest
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

/// The sweep: `seeds` x packet size x (full: platoon size x propagation)
/// over the base trial. Durations are shortened — the cache does not care
/// how long a cell runs, and the bench's point is the hit path.
campaign::SweepSpec make_spec(bool full, std::uint64_t seeds) {
  campaign::SweepSpec spec;
  spec.name = full ? "campaign_sweep/full" : "campaign_sweep/quick";
  spec.base = (full ? core::ScenarioBuilder::trial3() : core::ScenarioBuilder::trial1())
                  .duration(sim::Time::seconds(std::int64_t{full ? 8 : 6}))
                  .metrics(true)
                  .build();
  auto& seed_axis = spec.axis("seed");
  for (std::uint64_t s = 1; s <= seeds; ++s)
    seed_axis.point(std::to_string(s), [s](core::ScenarioBuilder& b) { b.seed(s); });
  spec.axis("packet_bytes")
      .point("500", [](core::ScenarioBuilder& b) { b.packet_bytes(500); })
      .point("1000", [](core::ScenarioBuilder& b) { b.packet_bytes(1000); });
  if (full) {
    spec.axis("platoon")
        .point("3", [](core::ScenarioBuilder& b) { b.platoon_size(3); })
        .point("4", [](core::ScenarioBuilder& b) { b.platoon_size(4); });
    spec.axis("propagation")
        .point("two_ray",
               [](core::ScenarioBuilder& b) {
                 b.mutate([](core::ScenarioConfig& c) {
                   c.propagation = core::PropagationType::kTwoRay;
                 });
               })
        .point("nakagami", [](core::ScenarioBuilder& b) {
          b.mutate(
              [](core::ScenarioConfig& c) { c.propagation = core::PropagationType::kNakagami; });
        });
  }
  return spec;
}

/// One timed campaign run with a fresh RunCache (fresh counters) over a
/// shared on-disk store.
Phase run_phase(const std::filesystem::path& store, const campaign::SweepSpec& spec,
                const bench::Options& opts) {
  campaign::RunCache cache{store};
  campaign::Runner runner{cache, opts.jobs};
  std::ostringstream manifest;
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignOutcome out = runner.run(spec, &manifest);
  const auto t1 = std::chrono::steady_clock::now();

  Phase p;
  p.manifest = manifest.str();
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const core::TrialResult& r : out.results) p.events += r.events_executed;
  p.hits = out.hits;
  p.misses = out.misses;
  const sim::MetricsSnapshot m = cache.metrics();
  p.bytes_read = m.node_counter(0, sim::Counter::kCampaignCacheBytesRead);
  p.bytes_written = m.node_counter(0, sim::Counter::kCampaignCacheBytesWritten);
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
  const bool full = !opts.positional.empty() && opts.positional.front() == "full";

  const campaign::SweepSpec spec = make_spec(full, full ? 8 : 2);
  const campaign::SweepSpec superset = make_spec(full, full ? 12 : 3);
  const std::size_t cells = spec.grid().size();
  const std::size_t super_cells = superset.grid().size();

  // A dedicated store under the cache dir, wiped so cold means cold.
  const std::filesystem::path store =
      std::filesystem::path{opts.cache_dir} / "campaign_sweep";
  std::filesystem::remove_all(store);

  const Phase cold = run_phase(store, spec, opts);
  const Phase warm = run_phase(store, spec, opts);
  const Phase partial = run_phase(store, superset, opts);

  const bool identical = cold.manifest == warm.manifest;
  const double speedup = warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0;

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""},
                             std::string{"Campaign cache sweep — "} + spec.name);
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
    w.field("sweep", spec.name);
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
