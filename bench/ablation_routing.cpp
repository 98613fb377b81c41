// Ablation: AODV vs DSDV vs static (pre-installed) routing. Isolates
// route acquisition's share of the initial-packet delay — the quantity
// the paper's stopping-distance verdict rests on — from the MAC's share:
//   - static routes: zero acquisition cost (lower bound);
//   - DSDV: proactive, so the first packet needs no discovery, but its
//     periodic dumps consume airtime (visible in TDMA's average delay);
//   - AODV (the paper's choice): pays an RREQ/RREP round trip on the
//     first brake notification.

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

namespace {

void print_row(std::ostream& os, const core::TrialResult& r) {
  os << std::left << std::setw(10) << core::to_string(r.config.mac) << std::setw(10)
     << core::to_string(r.config.routing) << std::right << std::fixed << std::setprecision(4)
     << std::setw(16) << r.p1_initial_packet_delay_s << std::setw(16)
     << r.p1_delay_summary().mean() << std::setw(14) << r.p1_throughput_ci.mean << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  std::vector<core::TrialSpec> specs;
  for (const core::MacType mac : {core::MacType::kTdma, core::MacType::k80211}) {
    for (const core::RoutingType routing :
         {core::RoutingType::kAodv, core::RoutingType::kDsdv, core::RoutingType::kStatic}) {
      specs.push_back(opts.spec(core::ScenarioBuilder::trial(1000, mac)
                                    .routing(routing)
                                    .duration(sim::Time::seconds(std::int64_t{32}))
                                    .mutate([&](core::ScenarioConfig& c) {
                                      if (routing == core::RoutingType::kDsdv) {
                                        c.dsdv.periodic_update_interval =
                                            sim::Time::seconds(std::int64_t{1});
                                      }
                                    })
                                    .build()));
    }
  }
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Ablation — routing agent (initial-packet delay decomposition)");
  os << std::left << std::setw(10) << "MAC" << std::setw(10) << "routing" << std::right
     << std::setw(16) << "init delay(s)" << std::setw(16) << "avg delay(s)" << std::setw(14)
     << "tput (Mbps)" << '\n';

  for (const core::TrialResult& r : runs) print_row(os, r);
  os << "\nthe AODV-minus-static gap in the init-delay column is route discovery's "
        "contribution to the first brake notification; DSDV trades it for "
        "standing control overhead.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "ablation_routing", runs); });
  return 0;
}
