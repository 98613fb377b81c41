// Self-tests of the benchmark's own logic (perfbench/selftest.py runs
// this binary, then checks the metric names eblbench prints):
//
//  - paper_sweep's fingerprint is the same at 1 and 2 runner workers,
//    and with tracing on;
//  - the benchmark's phase-by-phase trial equals core::run_trial;
//  - every workload's correctness check accepts a right output and
//    rejects a deliberately wrong one (paper_sweep: trial 3 run over
//    TDMA instead of 802.11; the others: outputs with a finding broken).
//
// Exit status 0 when every test passed.

#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& name, const std::string& detail = {}) {
  std::cout << (ok ? "ok   " : "FAIL ") << name;
  if (!ok && !detail.empty()) std::cout << ": " << detail;
  std::cout << '\n';
  if (!ok) ++g_failures;
}

BatchOutcome paper(const std::vector<eblnet::core::TrialSpec>& specs, unsigned jobs, bool traced) {
  Tracer tracer{traced};
  RunOptions opts;
  opts.jobs = jobs;
  opts.traced = traced;
  return run_paper_specs(specs, opts, tracer);
}

void paper_fingerprint_is_worker_and_trace_invariant() {
  const auto specs = paper_specs(1);
  const BatchOutcome serial = paper(specs, 1, false);
  const BatchOutcome parallel = paper(specs, 2, false);
  const BatchOutcome traced = paper(specs, 2, true);
  expect(serial.failures.empty() && parallel.failures.empty() && traced.failures.empty(),
         "paper_sweep passes its checks",
         serial.failures.empty() ? std::string{} : serial.failures.front());
  expect(serial.fingerprint == parallel.fingerprint, "paper_sweep fingerprint: 1 == 2 workers");
  expect(serial.fingerprint == traced.fingerprint, "paper_sweep fingerprint: untraced == traced");
  expect(!traced.layers.empty() && serial.layers.empty(), "only traced batches report layers");
}

/// Every workload runs scenarios through the benchmark's phase-by-phase
/// copy of core::run_trial; hold the copy to the program's own path on a
/// TDMA trial (which ends with packets queued, so the residual-queue fold
/// is compared) and an 802.11 trial, each with metrics off and on.
void phased_trial_matches_run_trial() {
  std::vector<eblnet::core::TrialSpec> specs;
  for (const eblnet::core::TrialSpec& base : {paper_specs(1)[0], paper_specs(1)[2]}) {
    for (const bool metrics : {false, true}) {
      specs.push_back(base);
      specs.back().config.enable_metrics = metrics;
    }
  }
  for (const eblnet::core::TrialSpec& spec : specs) {
    const eblnet::core::TrialResult phased = run_phased_trial(spec);
    const eblnet::core::TrialResult direct = eblnet::core::run_trial(spec.config, spec.name);
    const std::string name = "phased run == core::run_trial: " + spec.name +
                             (spec.config.enable_metrics ? " (metrics on)" : "");
    expect(trial_fingerprint(phased) == trial_fingerprint(direct), name + ", fingerprint");
    expect(phased.events_executed == direct.events_executed, name + ", events");
    expect(phased.metrics.counters == direct.metrics.counters &&
               phased.metrics.counters.empty() != spec.config.enable_metrics,
           name + ", layer counters");
  }
}

void paper_check_rejects_swapped_mac() {
  auto specs = paper_specs(1);
  specs.resize(3);
  specs[2].config.mac = eblnet::core::MacType::kTdma;
  const BatchOutcome out = paper(specs, 2, false);
  expect(!out.failures.empty() && out.failures.front().find("finding 3") != std::string::npos,
         "paper_sweep rejects trial 3 over TDMA",
         out.failures.empty() ? "no failure" : out.failures.front());
}

void paper_batch_check() {
  const auto trial3 = [](double initial_delay_s) {
    eblnet::core::TrialResult r;
    r.config = eblnet::core::trial3_config();
    r.p1_initial_packet_delay_s = initial_delay_s;
    return r;
  };
  // 0.03 s at 22.4 m/s is 13 % of the 5 m headway; 0.2 s is 89 %.
  expect(check_paper_batch({trial3(0.03), trial3(0.2), trial3(0.03)}).empty(),
         "paper_sweep accepts one slow 802.11 first packet");
  expect(!check_paper_batch({trial3(0.2), trial3(0.2), trial3(0.03)}).empty(),
         "paper_sweep rejects a slow median 802.11 first packet");
}

void highway_check() {
  expect(check_highway(100, 10).empty(), "highway_grid accepts decoded frames and a flood");
  expect(!check_highway(0, 10).empty(), "highway_grid rejects a run that decoded nothing");
  expect(!check_highway(100, 0).empty(), "highway_grid rejects a flood that never spread");
}

void traffic_check() {
  eblnet::core::TrafficRunResult good;
  good.penetration = 1.0;
  good.equipped = 5000;
  good.shockwave_speed_mps = -4.0;
  good.shockwave_points = 20;
  good.warnings_originated = 150;
  good.warning_receptions = 450;
  expect(check_traffic(good).empty(), "traffic_idm accepts an upstream wave with warnings");

  auto downstream = good;
  downstream.shockwave_speed_mps = 4.0;
  expect(!check_traffic(downstream).empty(), "traffic_idm rejects a downstream wave");

  auto unmeasured = good;
  unmeasured.shockwave_points = 1;
  expect(!check_traffic(unmeasured).empty(), "traffic_idm rejects an unmeasured wave");

  auto deaf = good;
  deaf.warning_receptions = 0;
  expect(!check_traffic(deaf).empty(), "traffic_idm rejects warnings nobody received");

  auto silent = deaf;
  silent.warnings_originated = 0;
  expect(!check_traffic(silent).empty(), "traffic_idm rejects a silent equipped fleet");

  auto partial = silent;
  partial.penetration = 0.5;
  partial.equipped = 2500;
  expect(check_traffic(partial).empty(), "traffic_idm accepts p = 0.5 where nobody warned");

  auto unequipped = good;
  unequipped.penetration = 0.0;
  unequipped.equipped = 0;
  expect(!check_traffic(unequipped).empty(), "traffic_idm rejects warnings from p = 0");
}

void beacon_check() {
  expect(check_beacon(0.9, 0.1).empty(), "beacon_dense accepts near-LOS > far-NLOS");
  expect(!check_beacon(0.1, 0.9).empty(), "beacon_dense rejects swapped BRRs");
  expect(!check_beacon(0.5, 0.5).empty(), "beacon_dense rejects equal BRRs");
}

}  // namespace

int main() {
  try {
    paper_fingerprint_is_worker_and_trace_invariant();
    phased_trial_matches_run_trial();
    paper_check_rejects_swapped_mac();
    paper_batch_check();
    highway_check();
    traffic_check();
    beacon_check();
  } catch (const std::exception& e) {
    std::cout << "FAIL threw: " << e.what() << '\n';
    return 1;
  }
  std::cout << (g_failures == 0 ? "all self-tests passed\n" : "self-tests FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
