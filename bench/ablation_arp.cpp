// Ablation: the NS-2 LL/ARP stage. The paper's stack resolved link
// addresses before the first unicast to each neighbour; this sweep shows
// how much of the initial brake notification that resolve round trip
// costs under each MAC (and that the steady state doesn't care).

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
  struct Variant {
    const char* label;
    bool use_arp;
    bool passive;
  };
  std::vector<core::TrialSpec> specs;
  for (const core::MacType mac : {core::MacType::kTdma, core::MacType::k80211}) {
    for (const Variant v : {Variant{"off", false, true}, Variant{"passive", true, true},
                            Variant{"ns2", true, false}}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial(1000, mac)
                                    .arp(v.use_arp)
                                    .duration(sim::Time::seconds(std::int64_t{32}))
                                    .mutate([&](core::ScenarioConfig& c) {
                                      c.arp.passive_learning = v.passive;
                                    })
                                    .build(),
                                v.label));
    }
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — ARP link layer (NS-2 LL stage)");
  os << std::left << std::setw(9) << "MAC" << std::setw(8) << "ARP" << std::right
     << std::setw(16) << "init delay(s)" << std::setw(14) << "avg delay(s)" << std::setw(14)
     << "tput (Mbps)" << '\n';

  for (const core::TrialResult& r : runs) {
    os << std::left << std::setw(9) << core::to_string(r.config.mac) << std::setw(8) << r.name
       << std::right << std::fixed << std::setprecision(4) << std::setw(16)
       << r.p1_initial_packet_delay_s << std::setw(14) << r.p1_delay_summary().mean()
       << std::setw(14) << r.p1_throughput_ci.mean << '\n';
  }
  os << "\n'ns2' = resolve explicitly even for nodes just overheard (NS-2's ARP);\n"
        "'passive' learns from overheard AODV broadcasts, so the resolve round\n"
        "trip disappears from the brake-notification path.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_arp", runs); });
  return 0;
}
