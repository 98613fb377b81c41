// Ablation: TDMA frame size (slot count). NS-2's Mac/Tdma provisions the
// frame for its configured maximum node count (default 64), not the six
// active vehicles. This sweep quantifies that design choice — the core
// tension behind the paper's TDMA numbers: a tight 6-slot frame recovers
// ~1 Mbps platoon throughput (the paper's trial-1 magnitude) but
// eliminates the multi-hundred-ms delays, while the 64-slot default
// reproduces the delay/safety picture at far lower throughput. No single
// frame produces both of the paper's absolute numbers.

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/safety.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  std::vector<core::TrialSpec> specs;
  for (const std::size_t slots : {6, 8, 16, 32, 64, 128}) {
    specs.push_back(opts.spec(core::ScenarioBuilder::trial1()
                                  .duration(sim::Time::seconds(std::int64_t{42}))
                                  .mutate([&](core::ScenarioConfig& c) {
                                    c.tdma.num_slots = slots;
                                  })
                                  .build()));
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — TDMA slots-per-frame sweep (trial 1 setup)");
  os << std::left << std::setw(8) << "slots" << std::right << std::setw(14) << "frame (ms)"
     << std::setw(14) << "avg delay(s)" << std::setw(16) << "init delay(s)" << std::setw(14)
     << "tput (Mbps)" << std::setw(16) << "% headway" << '\n';

  for (const core::TrialResult& r : runs) {
    const core::ScenarioConfig& cfg = r.config;
    core::StoppingAssessment a{cfg.speed_mps, cfg.vehicle_gap_m, r.p1_initial_packet_delay_s};
    os << std::left << std::setw(8) << cfg.tdma.num_slots << std::right << std::fixed
       << std::setprecision(2) << std::setw(14)
       << cfg.tdma.slot_duration().to_seconds() * 1e3 * static_cast<double>(cfg.tdma.num_slots)
       << std::setprecision(4) << std::setw(14) << r.p1_delay_summary().mean() << std::setw(16)
       << r.p1_initial_packet_delay_s << std::setw(14) << r.p1_throughput_ci.mean
       << std::setprecision(1) << std::setw(15) << a.fraction_of_headway() * 100.0 << '%'
       << '\n';
  }

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_tdma_slots", runs); });
  return 0;
}
