// Reproduces Fig. 5 (one-way delay vs packet ID for the first vehicle
// platoon of trial 1: 1000-byte packets over TDMA) and Fig. 6 (the
// transient-state portion of the same series). The paper plots the
// combined per-packet delay observed at the platoon's receivers; we print
// both follower flows.

#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial1_config(), "Trial 1")};
  const core::TrialResult r = bench::run(specs, opts).front();

  const core::report::ReportContext ctx{opts.out(), 6, "s"};
  core::report::print_delay_series(
      ctx, "Fig. 5 — Trial 1 one-way delay, platoon 1, middle vehicle", r.p1_middle);
  core::report::print_delay_series(
      ctx, "Fig. 5 — Trial 1 one-way delay, platoon 1, trailing vehicle", r.p1_trailing);
  core::report::print_delay_series(
      ctx, "Fig. 6 — Trial 1 transient-state one-way delay (first 50 packets)", r.p1_middle, 50);
  ctx.os << "\nsteady-state one-way delay (packets >= 50): " << r.p1_steady_state_delay_s()
         << " s\n";

  bench::write_manifest(opts, [&](auto& f) { core::report::write_json(f, r); });
  return 0;
}
