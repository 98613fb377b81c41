// Bench: safety under failure. The paper's trials assume every radio,
// clock and queue behaves; this sweep re-runs them with the fault
// subsystem active and asks the paper's own question — does the
// extended-brake-light warning still arrive in time to stop? — under a
// grid of injected failures: the brake-light source crashing around the
// brake event, a total RF blackout opening at brake onset, and a uniform
// packet-error rate over the whole run.

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/safety.hpp"
#include "core/trial.hpp"
#include "sim/fault.hpp"

using namespace eblnet;

namespace {

struct Cell {
  std::string label;
  std::string axis;
  double value{0.0};
  core::ScenarioConfig config;
};

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// The >= 3x3 fault grid over one trial config: three axes, three
/// magnitudes each.
std::vector<Cell> make_grid(const core::ScenarioConfig& base) {
  using sim::Time;
  std::vector<Cell> cells;

  // Axis 1: crash the brake-light source (platoon-1 lead) before, at, or
  // after the brake event; it reboots 2 s later as a cold start and must
  // re-announce through fresh AODV discovery.
  for (const double at : {1.0, 3.0, 5.0}) {
    Cell c;
    c.axis = "crash_at_s";
    c.value = at;
    c.label = "crash@t=" + fmt(at, 1) + "s";
    c.config = base;
    c.config.faults = sim::FaultPlan{}.crash(/*node=*/0, Time::seconds(at),
                                             /*reboot_after=*/Time::seconds(2.0));
    cells.push_back(std::move(c));
  }

  // Axis 2: a total RF blackout opening exactly at brake onset — the
  // worst moment for the safety message.
  for (const double dur : {0.5, 1.0, 2.0}) {
    Cell c;
    c.axis = "blackout_s";
    c.value = dur;
    c.label = "blackout=" + fmt(dur, 1) + "s";
    c.config = base;
    c.config.faults = sim::FaultPlan{}.blackout(base.platoon1_brake_at, Time::seconds(dur));
    cells.push_back(std::move(c));
  }

  // Axis 3: a uniform packet-error rate on every delivery, all run long.
  for (const double per : {0.2, 0.5, 0.8}) {
    Cell c;
    c.axis = "per";
    c.value = per;
    c.label = "per=" + fmt(per, 1);
    c.config = base;
    c.config.faults =
        sim::FaultPlan{}.link_per(Time::zero(), /*duration=*/{}, /*rate=*/per);
    cells.push_back(std::move(c));
  }
  return cells;
}

const char* verdict(const core::TrialResult& r) {
  const bool have_delay = r.p1_initial_packet_delay_s >= 0.0;
  if (!have_delay) return "never_notified";
  const core::StoppingAssessment a{r.config.speed_mps, r.config.vehicle_gap_m,
                                   r.p1_initial_packet_delay_s};
  return a.collision_avoided(0.0) ? "avoided" : "collision";
}

std::string ratio(double v) { return v < 0.0 ? std::string{"-"} : fmt(v, 3); }

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);

  // Fault-free baselines: the paper's three trials, metrics on so the
  // resilience blocks (and the reroute gauge) are populated either way.
  std::vector<core::TrialSpec> specs;
  for (core::ScenarioConfig cfg :
       {core::trial1_config(), core::trial2_config(), core::trial3_config()}) {
    cfg.enable_metrics = true;
    specs.push_back(opts.spec(cfg, "trial" + std::to_string(specs.size() + 1) + "/baseline"));
  }
  const std::size_t n_base = specs.size();

  // The fault grid runs over trial 3 (802.11): the contended MAC is where
  // failures bite hardest, and its baseline already sails closest to the
  // stopping-distance limit.
  const std::vector<Cell> cells = make_grid(specs.back().config);
  for (const Cell& c : cells) specs.push_back({c.config, "trial3/" + c.label});
  const std::vector<core::TrialResult> results = bench::run(specs, opts);

  const std::vector<core::TrialResult> baselines{results.begin(),
                                                 results.begin() + static_cast<long>(n_base)};
  const double baseline_delay = baselines.back().p1_initial_packet_delay_s;

  std::vector<core::report::ResilienceCell> report_cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    core::report::ResilienceCell rc;
    rc.label = cells[i].label;
    rc.axis = cells[i].axis;
    rc.value = cells[i].value;
    rc.baseline_initial_delay_s = baseline_delay;
    rc.result = results[n_base + i];
    report_cells.push_back(std::move(rc));
  }

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Resilience sweep — the paper's trials under injected faults");

  os << "fault-free baselines:\n";
  os << std::left << std::setw(20) << "trial" << std::right << std::setw(10) << "delivery"
     << std::setw(12) << "reroute_s" << std::setw(14) << "1st delay(s)" << std::setw(16)
     << "verdict" << '\n';
  for (const auto& r : baselines) {
    os << std::left << std::setw(20) << r.name << std::right << std::setw(10)
       << ratio(r.resilience.delivery_ratio) << std::setw(12)
       << ratio(r.resilience.time_to_reroute_s) << std::setw(14)
       << fmt(r.p1_initial_packet_delay_s, 4) << std::setw(16) << verdict(r) << '\n';
  }

  os << "\nfault grid over trial 3 (802.11):\n";
  os << std::left << std::setw(20) << "cell" << std::right << std::setw(10) << "delivery"
     << std::setw(10) << "during" << std::setw(10) << "after" << std::setw(12) << "reroute_s"
     << std::setw(14) << "1st delay(s)" << std::setw(16) << "verdict" << '\n';
  for (const auto& rc : report_cells) {
    const core::TrialResult& r = rc.result;
    os << std::left << std::setw(20) << rc.label << std::right << std::setw(10)
       << ratio(r.resilience.delivery_ratio) << std::setw(10)
       << ratio(r.resilience.delivery_ratio_during_outage) << std::setw(10)
       << ratio(r.resilience.delivery_ratio_after_outage) << std::setw(12)
       << ratio(r.resilience.time_to_reroute_s) << std::setw(14)
       << (r.p1_initial_packet_delay_s < 0.0 ? std::string{"-"}
                                             : fmt(r.p1_initial_packet_delay_s, 4))
       << std::setw(16) << verdict(r) << '\n';
  }
  os << "\nverdict: stopping-distance feasibility (SIII.E, zero reaction time)\n"
        "of the latest-notified platoon-1 follower under each fault;\n"
        "\"never_notified\" means the brake warning never arrived at all.\n";

  bench::write_manifest(opts, [&](auto& f) {
    core::report::write_resilience_json(f, "resilience_sweep", baselines, report_cells);
  });
  return 0;
}
