// Ablation: platoon size (the paper's stated future work — "a larger and
// more complex vehicular configuration"). Scales both platoons from 2 to
// 32 vehicles. The lead fans out one TCP stream per follower, so offered
// load grows linearly; under TDMA the lead still owns a single slot per
// frame, so per-follower service (and delay) degrades with size, while
// 802.11 absorbs the load until the channel saturates. The 16/32-vehicle
// points cross the channel's spatial-grid threshold (ChannelParams
// ::grid_min_phys = 16, i.e. 2x8 vehicles and up), so the sweep also
// exercises the grid against the paper's calibrated geometry.
// bench/perf_scale.cpp carries the scaling story to N = 1000.

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
  for (const core::MacType mac : {core::MacType::kTdma, core::MacType::k80211}) {
    for (const std::size_t size : {2, 3, 5, 8, 16, 32}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial(1000, mac)
                                    .platoon_size(size)
                                    .duration(sim::Time::seconds(std::int64_t{32}))
                                    .build()));
    }
  }
  // TrialResult's platoon-1 flows (lead -> nodes 1 and 2) remain the
  // representative metric at every size.
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — platoon size sweep (future work, §IV)");
  os << std::left << std::setw(8) << "MAC" << std::right << std::setw(10) << "size"
     << std::setw(14) << "avg delay(s)" << std::setw(16) << "init delay(s)" << std::setw(16)
     << "tput (Mbps)" << std::setw(14) << "collisions" << '\n';

  for (const core::TrialResult& r : runs) {
    os << std::left << std::setw(8) << core::to_string(r.config.mac) << std::right
       << std::setw(10) << r.config.platoon_size << std::fixed << std::setprecision(4)
       << std::setw(14) << r.p1_delay_summary().mean() << std::setw(16)
       << r.p1_initial_packet_delay_s << std::setw(16) << r.p1_throughput_ci.mean
       << std::setw(14) << r.phy_collisions << '\n';
  }

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_platoon_size", runs); });
  return 0;
}
