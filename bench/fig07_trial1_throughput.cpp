// Reproduces Fig. 7: throughput (Mbps) of the first vehicle platoon over
// time for trial 1 (1000-byte packets, TDMA), sampled every 100 ms as in
// the paper's Tcl `record` procedure. The series is zero until the
// platoon begins braking (~2 s) and roughly constant afterwards.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial1_config(), "Trial 1")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 4, "Mbps"};
  core::report::print_throughput_series(ctx, "Fig. 7 — Trial 1 throughput, platoon 1",
                                        r.p1_throughput);
  core::report::print_summary_row(ctx, "platoon 1 throughput", r.p1_throughput_summary());
  core::report::print_confidence(ctx, "confidence analysis", r.p1_throughput_ci);

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
