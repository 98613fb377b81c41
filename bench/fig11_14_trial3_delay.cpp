// Reproduces Figs. 11-14: one-way delay vs packet ID under 802.11
// (trial 3, 1000-byte packets) — overall and transient state, for both
// vehicle platoons. Delays are more than an order of magnitude below the
// TDMA trials.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial3_config(), "Trial 3")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 6, "s"};
  core::report::print_delay_series(
      ctx, "Fig. 11 — Trial 3 one-way delay, platoon 1, middle vehicle", r.p1_middle);
  core::report::print_delay_series(
      ctx, "Fig. 11 — Trial 3 one-way delay, platoon 1, trailing vehicle", r.p1_trailing);
  core::report::print_delay_series(
      ctx, "Fig. 12 — Trial 3 transient-state delay, platoon 1 (first 25 packets)", r.p1_middle,
      25);
  core::report::print_delay_series(
      ctx, "Fig. 13 — Trial 3 one-way delay, platoon 2, middle vehicle", r.p2_middle);
  core::report::print_delay_series(
      ctx, "Fig. 13 — Trial 3 one-way delay, platoon 2, trailing vehicle", r.p2_trailing);
  core::report::print_delay_series(
      ctx, "Fig. 14 — Trial 3 transient-state delay, platoon 2 (first 25 packets)", r.p2_middle,
      25);
  ctx.os << "\nplatoon 1 steady-state one-way delay (packets >= 50): "
         << r.p1_steady_state_delay_s() << " s\n";

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
