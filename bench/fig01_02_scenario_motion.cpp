// Reproduces Figs. 1-2: the geometry and motion of the two vehicle
// platoons through the intersection. Prints each vehicle's position at
// 0.5 s intervals plus the scripted scenario milestones, so the figure
// can be re-plotted (platoon 1 travelling north and stopping at the
// intersection; platoon 2 waiting on the cross street and departing east
// once platoon 1 has stopped).

#include <iomanip>
#include <iostream>
#include <vector>

#include "bench/options.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"

using namespace eblnet;

namespace {

struct MotionSample {
  double time_s{0.0};
  std::vector<mobility::Vec2> positions;
  const char* p1_state{""};
  const char* p2_state{""};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  // geometry is MAC-independent; defaults suffice
  const core::ScenarioConfig cfg = core::ScenarioBuilder{}
                                       .duration(sim::Time::seconds(std::int64_t{16}))
                                       .trace(false)
                                       .mutate([&](core::ScenarioConfig& c) { opts.apply(c); })
                                       .build();
  core::EblScenario scenario{cfg};

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "Figs. 1-2 — platoon motion through the intersection");
  os << "scenario milestones:\n"
     << "  platoon 1 brakes at        t=" << cfg.platoon1_brake_at.to_seconds() << " s\n"
     << "  platoon 1 fully stopped at t=" << cfg.platoon1_stop_time().to_seconds() << " s\n"
     << "  platoon 2 departs at       t=" << cfg.resolved_platoon2_depart().to_seconds()
     << " s\n\n";
  os << "time_s";
  for (int p = 1; p <= 2; ++p)
    for (int v = 0; v < 3; ++v) os << "  p" << p << "v" << v << "_x  p" << p << "v" << v << "_y";
  os << "  p1_state p2_state\n";

  std::vector<MotionSample> samples;
  const sim::Time step = sim::Time::milliseconds(500);
  for (sim::Time t = sim::Time::zero(); t <= cfg.duration; t += step) {
    scenario.run_until(t);
    MotionSample sample;
    sample.time_s = t.to_seconds();
    sample.p1_state = to_string(scenario.platoon1().lead()->state());
    sample.p2_state = to_string(scenario.platoon2().lead()->state());
    os << std::fixed << std::setprecision(1) << std::setw(6) << t.to_seconds();
    for (std::size_t i = 0; i < 6; ++i) {
      const auto pos = scenario.node(i).position();
      sample.positions.push_back(pos);
      os << "  " << std::setprecision(1) << std::setw(7) << pos.x << "  " << std::setw(7)
         << pos.y;
    }
    os << "  " << sample.p1_state << "  " << sample.p2_state << '\n';
    samples.push_back(std::move(sample));
  }

  // Motion has no TrialResult, so the figure data gets its own manifest kind.
  bench::write_manifest(opts, [&](std::ostream& out) {
    core::JsonWriter w{out};
    w.begin_object();
    w.field("schema_version", std::uint64_t{core::report::kManifestSchemaVersion});
    w.field("kind", "eblnet.motion");
    w.field("name", "fig01_02_scenario_motion");
    w.key("milestones");
    w.begin_object();
    w.field("platoon1_brake_at_s", cfg.platoon1_brake_at.to_seconds());
    w.field("platoon1_stop_time_s", cfg.platoon1_stop_time().to_seconds());
    w.field("platoon2_depart_s", cfg.resolved_platoon2_depart().to_seconds());
    w.end_object();
    w.key("samples");
    w.begin_array();
    for (const MotionSample& s : samples) {
      w.begin_object();
      w.field("time_s", s.time_s);
      w.key("positions");
      w.begin_array();
      for (const auto& pos : s.positions) {
        w.begin_object();
        w.field("x", pos.x);
        w.field("y", pos.y);
        w.end_object();
      }
      w.end_array();
      w.field("p1_state", s.p1_state);
      w.field("p2_state", s.p2_state);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
  });

  return 0;
}
