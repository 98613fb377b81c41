// Reproduces the throughput statistics of §III.B–§III.D: average /
// minimum / maximum platoon throughput and the 95% confidence analysis
// ("within H Mbps of the observed value, with 95% confidence and R%
// relative precision") for all three trials.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;
using core::report::print_confidence;
using core::report::print_header;
using core::report::print_summary_row;
using core::report::ReportContext;

namespace {

void print_trial(const ReportContext& ctx, const core::TrialResult& r) {
  print_header(ctx, "Throughput statistics — " + r.name + "  (" +
                        std::to_string(r.config.packet_bytes) + " B, " +
                        core::to_string(r.config.mac) + ")");
  print_summary_row(ctx, "platoon 1 throughput", r.p1_throughput_summary());
  print_summary_row(ctx, "platoon 2 throughput", r.p2_throughput_summary());
  print_confidence(ctx, "platoon 1 (comm window, batch means)", r.p1_throughput_ci);
  print_confidence(ctx, "platoon 2 (comm window, batch means)", r.p2_throughput_ci);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial1_config(), "Trial 1"),
                                   opts.spec(core::trial2_config(), "Trial 2"),
                                   opts.spec(core::trial3_config(), "Trial 3")};
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  const ReportContext ctx{opts.out(), 4, "Mbps"};
  for (const auto& r : runs) print_trial(ctx, r);

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "table_throughput_stats", runs); });
  return 0;
}
