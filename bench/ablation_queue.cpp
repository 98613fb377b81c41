// Ablation: interface-queue discipline. The paper fixes drop-tail
// (PriQueue); RED is the canonical alternative. With the calibrated
// 5-packet TCP window the buffer never fills, so the trial numbers are
// insensitive — the interesting regime is a large window, where RED
// trades a shorter standing queue (lower delay) for early drops. This
// bench shows both regimes under TDMA.

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"
#include "queue/red.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  std::vector<core::TrialSpec> specs;
  for (const double window : {5.0, 60.0}) {
    for (const bool red : {false, true}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial1()
                                    .duration(sim::Time::seconds(std::int64_t{42}))
                                    .red_queue(red)
                                    .mutate([&](core::ScenarioConfig& c) {
                                      c.ebl.tcp.max_window = window;
                                      c.ebl.tcp.initial_ssthresh = window;
                                      if (red) c.ifq_capacity = 50;
                                    })
                                    .build(),
                                red ? "RED" : "drop-tail"));
    }
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — drop-tail vs RED interface queue (trial 1 setup)");
  os << std::left << std::setw(12) << "queue" << std::setw(10) << "window" << std::right
     << std::setw(14) << "avg delay(s)" << std::setw(14) << "tput (Mbps)" << std::setw(12)
     << "ifq drops" << '\n';

  for (const core::TrialResult& r : runs) {
    os << std::left << std::setw(12) << r.name << std::setw(10) << r.config.ebl.tcp.max_window
       << std::right << std::fixed << std::setprecision(4) << std::setw(14)
       << r.p1_delay_summary().mean() << std::setw(14) << r.p1_throughput_ci.mean
       << std::setw(12) << r.ifq_drops << '\n';
  }
  os << "\nwith the calibrated 5-packet window the buffer never fills and the\n"
               "disciplines coincide exactly. At window 60 both saturate: under TDMA\n"
               "the service rate is so low that RED's average-queue signal saturates\n"
               "too, and early drops only shave throughput — an honest negative\n"
               "result. RED's textbook delay win appears on faster links: see\n"
               "RedQueueTest.RedKeepsTcpStandingQueueShorterThanDropTail (802.11,\n"
               "where it roughly halves the standing-queue delay).\n";
  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_queue", runs); });
  return 0;
}
