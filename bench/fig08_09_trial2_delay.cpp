// Reproduces Fig. 8 (one-way delay vs packet ID, platoon 1, trial 2:
// 500-byte packets over TDMA) and Fig. 9 (its transient state). Compared
// against trial 1, the series is essentially unchanged — the paper's
// packet-size finding.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial2_config(), "Trial 2")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 6, "s"};
  core::report::print_delay_series(
      ctx, "Fig. 8 — Trial 2 one-way delay, platoon 1, middle vehicle", r.p1_middle);
  core::report::print_delay_series(
      ctx, "Fig. 8 — Trial 2 one-way delay, platoon 1, trailing vehicle", r.p1_trailing);
  core::report::print_delay_series(
      ctx, "Fig. 9 — Trial 2 transient-state one-way delay (first 50 packets)", r.p1_middle, 50);
  ctx.os << "\nsteady-state one-way delay (packets >= 50): " << r.p1_steady_state_delay_s()
         << " s\n";

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
