// Ablation: RTS/CTS on vs off for the 802.11 trial. At 5 m spacing every
// vehicle hears every other, so the handshake buys no hidden-terminal
// protection and only costs airtime — but it is the knob a DoS-hardening
// deployment (the security trade-off the paper discusses) would touch
// first.

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
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{SIZE_MAX}}) {
    specs.push_back(opts.spec(core::ScenarioBuilder::trial3()
                                  .duration(sim::Time::seconds(std::int64_t{32}))
                                  .mutate([&](core::ScenarioConfig& c) {
                                    c.mac80211.rts_threshold = threshold;
                                  })
                                  .build()));
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — RTS/CTS (trial 3 setup)");
  os << std::left << std::setw(14) << "rts_thresh" << std::right << std::setw(14)
     << "avg delay(s)" << std::setw(14) << "max delay(s)" << std::setw(14) << "tput (Mbps)"
     << std::setw(16) << "collisions" << '\n';

  for (const core::TrialResult& r : runs) {
    const auto d = r.p1_delay_summary();
    os << std::left << std::setw(14)
       << (r.config.mac80211.rts_threshold == 0 ? "0 (always)" : "off") << std::right
       << std::fixed << std::setprecision(4) << std::setw(14) << d.mean() << std::setw(14)
       << d.max() << std::setw(14) << r.p1_throughput_ci.mean << std::setw(16)
       << r.phy_collisions << '\n';
  }
  os << "\nexpectation: with every node in carrier-sense range, RTS/CTS adds "
        "per-packet overhead (higher delay, lower throughput) without reducing "
        "collisions meaningfully.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_rtscts", runs); });
  return 0;
}
