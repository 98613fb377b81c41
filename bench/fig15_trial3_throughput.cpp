// Reproduces Fig. 15: throughput of the first vehicle platoon over time
// for trial 3 (1000-byte packets, 802.11) — significantly above both TDMA
// trials.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial3_config(), "Trial 3")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 4, "Mbps"};
  core::report::print_throughput_series(ctx, "Fig. 15 — Trial 3 throughput, platoon 1",
                                        r.p1_throughput);
  core::report::print_summary_row(ctx, "platoon 1 throughput", r.p1_throughput_summary());
  core::report::print_confidence(ctx, "confidence analysis", r.p1_throughput_ci);

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
