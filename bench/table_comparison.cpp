// Reproduces the trial-vs-trial analysis of §III.E as one table:
//   - trials 1 vs 2: packet size leaves one-way delay essentially
//     unchanged but halves throughput;
//   - trials 1 vs 3: switching TDMA -> 802.11 slashes delay and raises
//     throughput.
// Prints the metric matrix plus the headline ratios the analysis rests on.

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial1_config(), "Trial 1"),
                                   opts.spec(core::trial2_config(), "Trial 2"),
                                   opts.spec(core::trial3_config(), "Trial 3")};
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);
  const core::TrialResult& t1 = runs[0];
  const core::TrialResult& t2 = runs[1];
  const core::TrialResult& t3 = runs[2];

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "§III.E — comparison of trials (platoon 1)");
  os << std::left << std::setw(34) << "metric" << std::right << std::setw(14) << "trial 1"
     << std::setw(14) << "trial 2" << std::setw(14) << "trial 3" << '\n'
     << std::left << std::setw(34) << "packet size / MAC" << std::right << std::setw(14)
     << "1000B TDMA" << std::setw(14) << "500B TDMA" << std::setw(14) << "1000B 802.11" << '\n';

  const auto row = [&](const char* name, double a, double b, double c, int prec) {
    os << std::left << std::setw(34) << name << std::right << std::fixed
       << std::setprecision(prec) << std::setw(14) << a << std::setw(14) << b << std::setw(14)
       << c << '\n';
  };
  row("avg one-way delay (s)", t1.p1_delay_summary().mean(), t2.p1_delay_summary().mean(),
      t3.p1_delay_summary().mean(), 4);
  row("steady-state delay (s)", t1.p1_steady_state_delay_s(), t2.p1_steady_state_delay_s(),
      t3.p1_steady_state_delay_s(), 4);
  row("max one-way delay (s)", t1.p1_delay_summary().max(), t2.p1_delay_summary().max(),
      t3.p1_delay_summary().max(), 4);
  row("initial-packet delay (s)", t1.p1_initial_packet_delay_s, t2.p1_initial_packet_delay_s,
      t3.p1_initial_packet_delay_s, 4);
  row("avg throughput (Mbps)", t1.p1_throughput_ci.mean, t2.p1_throughput_ci.mean,
      t3.p1_throughput_ci.mean, 4);

  os << "\nheadline ratios:\n" << std::setprecision(2);
  os << "  delay(trial1)/delay(trial2)       = "
     << t1.p1_delay_summary().mean() / t2.p1_delay_summary().mean()
     << "   (paper: ~1.0 — size does not drive delay)\n";
  os << "  throughput(trial1)/throughput(2)  = "
     << t1.p1_throughput_ci.mean / t2.p1_throughput_ci.mean
     << "   (paper: ~2.0 — TDMA serves fixed packet rate)\n";
  os << "  delay(trial1)/delay(trial3)       = "
     << t1.p1_delay_summary().mean() / t3.p1_delay_summary().mean()
     << "   (paper: >>1 — TDMA slot waiting dominates)\n";
  os << "  throughput(trial3)/throughput(1)  = "
     << t3.p1_throughput_ci.mean / t1.p1_throughput_ci.mean
     << "   (paper: >1 — 802.11 sends with greater frequency)\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "table_comparison", runs); });
  return 0;
}
