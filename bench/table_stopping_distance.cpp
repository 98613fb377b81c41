// Reproduces the stopping-distance feasibility analysis of §III.E: using
// the one-way delay of the *initial* EBL packet (the first indication to
// a trailing vehicle that the lead vehicle is braking), how far does a
// trailing vehicle travel at 50 mph before notification, as a fraction of
// the 5 m separation? Under TDMA the vehicle consumes over 100% of the
// gap; under 802.11 only a few percent.

#include <iomanip>
#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/safety.hpp"
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
  core::report::print_header({os, 4, ""}, "§III.E — stopping-distance analysis");
  os << "speed = " << t1.config.speed_mps << " m/s (50 mph), separation = "
     << t1.config.vehicle_gap_m << " m\n\n";
  os << std::left << std::setw(10) << "trial" << std::right << std::setw(16) << "init delay (s)"
     << std::setw(16) << "dist (m)" << std::setw(18) << "% of separation" << std::setw(14)
     << "verdict" << '\n';

  for (const auto* r : {&t1, &t2, &t3}) {
    core::StoppingAssessment a;
    a.speed_mps = r->config.speed_mps;
    a.headway_m = r->config.vehicle_gap_m;
    a.notification_delay_s = r->p1_initial_packet_delay_s;
    os << std::left << std::setw(10) << r->name << std::right << std::fixed
       << std::setprecision(4) << std::setw(16) << a.notification_delay_s << std::setprecision(2)
       << std::setw(16) << a.distance_during_notification() << std::setprecision(1)
       << std::setw(17) << a.fraction_of_headway() * 100.0 << '%' << std::setw(14)
       << (a.fraction_of_headway() >= 1.0 ? "gap consumed" : "in time") << '\n';
  }

  os << "\nwith driver/system reaction time included (same-deceleration stop):\n";
  os << std::left << std::setw(10) << "trial" << std::right << std::setw(16) << "reaction (s)"
     << std::setw(18) << "closing dist (m)" << std::setw(14) << "margin (m)" << std::setw(14)
     << "collision?" << '\n';
  for (const auto* r : {&t1, &t3}) {
    for (const double reaction : {0.0, 0.1}) {
      core::StoppingAssessment a;
      a.speed_mps = r->config.speed_mps;
      a.headway_m = r->config.vehicle_gap_m;
      a.notification_delay_s = r->p1_initial_packet_delay_s;
      os << std::left << std::setw(10) << r->name << std::right << std::fixed
         << std::setprecision(2) << std::setw(16) << reaction << std::setw(18)
         << a.closing_distance(reaction) << std::setw(14) << a.margin(reaction) << std::setw(14)
         << (a.collision_avoided(reaction) ? "avoided" : "IMPACT") << '\n';
    }
  }
  os << "\nmax tolerable network delay for a 0.1 s system reaction at this "
        "speed/headway: "
     << std::setprecision(4)
     << core::StoppingAssessment{t1.config.speed_mps, t1.config.vehicle_gap_m, 0.0}
            .max_tolerable_delay(0.1)
     << " s\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "table_stopping_distance", runs); });
  return 0;
}
