// Ablation: delayed ACKs at the EBL receivers. ACK frames cost airtime
// (802.11) or whole slots (TDMA); RFC 1122 delayed ACKs halve that cost
// at the price of slower window growth. This sweep shows the effect on
// the paper's trials.

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
    for (const bool delack : {false, true}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial(1000, mac)
                                    .duration(sim::Time::seconds(std::int64_t{32}))
                                    .mutate([&](core::ScenarioConfig& c) {
                                      c.ebl.sink.delayed_ack = delack;
                                    })
                                    .build()));
    }
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — delayed ACKs at the EBL sinks");
  os << std::left << std::setw(9) << "MAC" << std::setw(10) << "delack" << std::right
     << std::setw(14) << "avg delay(s)" << std::setw(16) << "init delay(s)" << std::setw(14)
     << "tput (Mbps)" << '\n';

  for (const core::TrialResult& r : runs) {
    os << std::left << std::setw(9) << core::to_string(r.config.mac) << std::setw(10)
       << (r.config.ebl.sink.delayed_ack ? "on" : "off") << std::right << std::fixed
       << std::setprecision(4) << std::setw(14) << r.p1_delay_summary().mean() << std::setw(16)
       << r.p1_initial_packet_delay_s << std::setw(14) << r.p1_throughput_ci.mean << '\n';
  }
  os << "\nunder TDMA every ACK costs the follower's next slot, so delaying them\n"
        "frees slots but stretches the RTT the window is clocked by.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_delack", runs); });
  return 0;
}
