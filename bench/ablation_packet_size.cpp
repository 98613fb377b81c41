// Ablation: packet-size sweep (100-1500 B) under both MACs — where does
// the paper's "size does not drive delay" finding hold, and where does it
// break? Under TDMA, delay is frame-bound for every size that fits a
// slot; under 802.11, airtime scales with size so delay creeps up with
// load once utilisation gets high.

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
    for (const std::size_t bytes : {100, 250, 500, 1000, 1500}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial(bytes, mac)
                                    .duration(sim::Time::seconds(std::int64_t{32}))
                                    .build()));
    }
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — packet size sweep (platoon 1 metrics)");
  os << std::left << std::setw(8) << "MAC" << std::right << std::setw(10) << "bytes"
     << std::setw(14) << "avg delay(s)" << std::setw(14) << "max delay(s)" << std::setw(16)
     << "tput (Mbps)" << '\n';

  for (const core::TrialResult& r : runs) {
    const auto d = r.p1_delay_summary();
    os << std::left << std::setw(8) << core::to_string(r.config.mac) << std::right
       << std::setw(10) << r.config.packet_bytes << std::fixed << std::setprecision(4)
       << std::setw(14) << d.mean() << std::setw(14) << d.max() << std::setw(16)
       << r.p1_throughput_ci.mean << '\n';
  }
  os << "\nexpectation: TDMA delay column constant (slot-bound); TDMA throughput "
        "linear in size; 802.11 delay rises with size as utilisation grows.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_packet_size", runs); });
  return 0;
}
