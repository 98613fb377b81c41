// Reproduces Fig. 10: throughput of the first vehicle platoon over time
// for trial 2 (500-byte packets, TDMA). Roughly half of trial 1's level:
// TDMA serves the same packet rate regardless of size.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial2_config(), "Trial 2")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 4, "Mbps"};
  core::report::print_throughput_series(ctx, "Fig. 10 — Trial 2 throughput, platoon 1",
                                        r.p1_throughput);
  core::report::print_summary_row(ctx, "platoon 1 throughput", r.p1_throughput_summary());
  core::report::print_confidence(ctx, "confidence analysis", r.p1_throughput_ci);

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
