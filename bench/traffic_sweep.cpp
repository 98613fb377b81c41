// Bench: closed-loop car-following traffic under a V2V market-penetration
// sweep. A multi-lane IDM highway stream (mobility::TrafficFlow) carries
// thousands of vehicles; mid-run, one vehicle on lane 0 is forced into an
// emergency stop and holds, seeding a stop-and-go shockwave that
// propagates upstream through the following traffic. A `penetration`
// fraction of vehicles carries the full radio stack (802.11 broadcast +
// WarningFlood): equipped vehicles flood a warning when they brake hard,
// and equipped receivers upstream widen their headway and cap their speed
// `reaction` later — the extended-brake-light loop closed over real
// dynamics.
//
// Reported per cell: the shockwave front's upstream speed (least-squares
// fit of first-slow position vs. time), congestion onset (first
// mean-speed sample under the threshold after the incident), and the
// warning counts. The with/without-V2V contrast is the paper's thesis at
// traffic scale: warnings that outrun the brake-light chain soften the
// wave.
//
// Usage: traffic_sweep [--json out.json] [--seed n] [--jobs n] [--quiet] [full]
//
//   Default (quick) mode caps the stream at 5,000 vehicles; the
//   argument `full` raises the cap to 50,000 on a longer, wider
//   highway.

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

namespace {

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// The sweep's shared configuration: one highway, one staged incident.
core::TrafficConfig make_base(bool full, std::uint64_t seed) {
  core::TrafficConfig cfg;
  cfg.flow = mobility::TrafficFlowParams::highway(full ? 12 : 8,
                                                  /*length_m=*/10000.0,
                                                  /*flow_veh_per_s_per_lane=*/full ? 0.9 : 0.8);
  cfg.flow.max_vehicles = full ? 50000 : 5000;
  // Long enough for the spawner to fill the cap (lane entry saturates
  // near 0.5 veh/s/lane once the road is carrying traffic).
  cfg.duration = sim::Time::seconds(std::int64_t{full ? 3000 : 1300});
  // Let the road fill to steady state (travel time ~ length / 30 m/s)
  // before the incident, then hold the blockage long enough for the
  // queue to grow a measurable front.
  cfg.incident_at = sim::Time::seconds(std::int64_t{full ? 600 : 400});
  cfg.incident_hold = sim::Time::seconds(std::int64_t{full ? 300 : 180});
  cfg.incident_decel_mps2 = 6.0;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const bool full = opts.full;
  const std::uint64_t seed = opts.seed_set ? opts.seed : 1;

  const core::TrafficConfig base = make_base(full, seed);
  const std::vector<double> penetrations =
      full ? std::vector<double>{0.0, 0.1, 0.25, 0.5, 0.75, 1.0}
           : std::vector<double>{0.0, 0.1, 0.5, 1.0};

  const std::vector<core::TrafficRunResult> rows =
      core::Runner{opts.jobs}.map(penetrations.size(), [&](std::size_t i) {
        core::TrafficConfig cfg = base;
        cfg.penetration = penetrations[i];
        return core::ScenarioBuilder()
            .seed(seed)
            .with_traffic_flow(cfg)
            .run_traffic("p=" + fmt(penetrations[i], 2));
      });

  std::ostream& os = opts.out();
  core::report::print_header(
      {os, 4, ""}, "Traffic sweep — IDM shockwave vs V2V market penetration (closed loop)");
  os << base.flow.roads.size() << " road(s), " << base.flow.roads.at(0).lanes << " lanes x "
     << fmt(base.flow.roads.at(0).length_m / 1000.0, 1) << " km, "
     << fmt(base.flow.flow_rate_veh_per_s_per_lane, 2) << " veh/s/lane, cap "
     << base.flow.max_vehicles << " vehicles; incident at t=" << base.incident_at.to_seconds()
     << " s holding " << base.incident_hold.to_seconds() << " s\n\n";

  os << std::left << std::setw(8) << "pen." << std::right << std::setw(9) << "spawned"
     << std::setw(10) << "equipped" << std::setw(8) << "warns" << std::setw(10) << "rx"
     << std::setw(10) << "reacted" << std::setw(12) << "wave(m/s)" << std::setw(8) << "pts"
     << std::setw(11) << "onset(s)" << std::setw(12) << "mean(m/s)" << '\n';
  for (const auto& r : rows) {
    os << std::left << std::setw(8) << r.name << std::right << std::setw(9) << r.vehicles_spawned
       << std::setw(10) << r.equipped << std::setw(8) << r.warnings_originated << std::setw(10)
       << r.warning_receptions << std::setw(10) << r.reactions << std::setw(12)
       << (r.shockwave_points >= 2 ? fmt(r.shockwave_speed_mps, 3) : std::string{"-"})
       << std::setw(8) << r.shockwave_points << std::setw(11)
       << (r.congestion_onset_s < 0.0 ? std::string{"-"} : fmt(r.congestion_onset_s, 1))
       << std::setw(12) << fmt(r.final_mean_speed_mps, 2) << '\n';
  }
  os << "\nwave(m/s): least-squares speed of the first-slow front upstream of the\n"
        "incident (negative = against traffic). onset(s): first mean-speed sample\n"
        "under " << fmt(base.congestion_speed_mps, 0)
     << " m/s after the incident. p=0.00 is the no-V2V baseline.\n";

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_traffic_json(f, "traffic_sweep", base, rows); });
  return 0;
}
