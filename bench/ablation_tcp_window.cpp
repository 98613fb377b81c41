// Ablation: TCP window sweep under TDMA. With the MAC as the bottleneck,
// the steady-state one-way delay is (approximately) window x per-packet
// service time: the standing queue the window permits. This isolates the
// paper's observation that the delay "was not the size of the packets ...
// but rather the overhead associated with the TCP and TDMA protocols".

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  std::vector<core::TrialSpec> specs;
  for (const double window : {1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0}) {
    specs.push_back(opts.spec(core::ScenarioBuilder::trial1()
                                  .duration(sim::Time::seconds(std::int64_t{42}))
                                  .mutate([&](core::ScenarioConfig& c) {
                                    c.ebl.tcp.max_window = window;
                                    c.ebl.tcp.initial_ssthresh = window;
                                  })
                                  .build()));
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — TCP max window sweep (trial 1 setup)");
  os << std::left << std::setw(10) << "window" << std::right << std::setw(16)
     << "steady delay(s)" << std::setw(14) << "avg delay(s)" << std::setw(14) << "tput (Mbps)"
     << '\n';

  for (const core::TrialResult& r : runs) {
    const std::vector<trace::DelaySample>& middle = r.p1_middle;
    stats::Summary steady;
    stats::Summary all = trace::DelayAnalyzer::summarize(middle);
    for (const auto& d : middle) {
      if (d.seq >= 30) steady.add(d.delay_seconds());
    }
    const auto tput = r.p1_throughput.summarize(r.config.platoon1_brake_at, r.config.duration);
    os << std::left << std::setw(10) << r.config.ebl.tcp.max_window << std::right << std::fixed
       << std::setprecision(4) << std::setw(16) << (steady.empty() ? 0.0 : steady.mean())
       << std::setw(14) << all.mean() << std::setw(14) << tput.mean() << '\n';
  }
  os << "\nexpectation: steady delay ~ linear in window while throughput is flat "
        "(the MAC, not the window, is the bottleneck).\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_tcp_window", runs); });
  return 0;
}
