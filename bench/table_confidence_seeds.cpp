// Complements the paper's within-run confidence analysis with an
// across-run one: each trial repeated over ten independent seeds, and a
// Student-t CI computed over the per-run means. The paper ran each trial
// once and batched within the run; across-seed replication is the
// stronger statement a modern reviewer would ask for.
//
// All 30 (trial, seed) runs are independent, so they go through
// core::Runner and use every core (EBLNET_JOBS / --jobs overrides).
// Results come back in input order and each run is bit-identical to
// serial execution, so the report below is byte-for-byte what the serial
// loop printed. --seed is ignored here: the sweep IS the seed variation.

#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

namespace {

constexpr std::uint64_t kSeeds = 10;

std::vector<core::TrialSpec> seed_sweep(const core::ScenarioConfig& base, bool metrics) {
  std::vector<core::TrialSpec> specs;
  specs.reserve(kSeeds);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    core::ScenarioConfig cfg = base;
    cfg.seed = seed;
    cfg.duration = sim::Time::seconds(std::int64_t{32});
    cfg.enable_metrics = metrics;
    specs.push_back({cfg, {}});
  }
  return specs;
}

void report(std::ostream& os, const std::vector<core::TrialResult>& runs, std::size_t offset,
            const std::string& name) {
  stats::Summary tput, delay, init;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const core::TrialResult& r = runs[offset + i];
    tput.add(r.p1_throughput_ci.mean);
    delay.add(r.p1_delay_summary().mean());
    init.add(r.p1_initial_packet_delay_s);
  }
  const core::report::ReportContext mbps{os, 4, "Mbps"};
  const core::report::ReportContext secs{os, 4, "s"};
  core::report::print_header(mbps, name + " — across-seed replication (n=10)");
  core::report::print_confidence(mbps, "throughput", stats::mean_confidence_interval(tput));
  core::report::print_confidence(secs, "avg one-way delay", stats::mean_confidence_interval(delay));
  core::report::print_confidence(secs, "initial-packet delay",
                                 stats::mean_confidence_interval(init));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  std::vector<core::TrialSpec> specs;
  for (const core::ScenarioConfig& base :
       {core::ScenarioBuilder::trial1().build(), core::ScenarioBuilder::trial2().build(),
        core::ScenarioBuilder::trial3().build()}) {
    for (core::TrialSpec& s : seed_sweep(base, opts.want_json())) specs.push_back(std::move(s));
  }

  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  report(os, runs, 0 * kSeeds, "Trial 1 (1000 B, TDMA)");
  report(os, runs, 1 * kSeeds, "Trial 2 (500 B, TDMA)");
  report(os, runs, 2 * kSeeds, "Trial 3 (1000 B, 802.11)");

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "table_confidence_seeds", runs); });
  return 0;
}
