#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "core/json_writer.hpp"
#include "core/safety.hpp"
#include "core/scenario_text.hpp"
#include "core/trial.hpp"

namespace eblnet::core::report {

void print_header(const ReportContext& ctx, const std::string& title) {
  ctx.os << '\n' << std::string(72, '=') << '\n' << title << '\n' << std::string(72, '=') << '\n';
}

void print_delay_series(const ReportContext& ctx, const std::string& title,
                        const std::vector<trace::DelaySample>& samples, std::size_t max_points) {
  print_header(ctx, title);
  ctx.os << "packet_id  delay_s\n";
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (n++ >= max_points) break;
    ctx.os << std::setw(9) << s.seq << "  " << std::fixed << std::setprecision(ctx.precision)
           << s.delay_seconds() << '\n';
  }
  ctx.os << "(" << std::min(samples.size(), max_points) << " of " << samples.size()
         << " packets shown)\n";
}

void print_throughput_series(const ReportContext& ctx, const std::string& title,
                             const stats::TimeSeries& series) {
  print_header(ctx, title);
  ctx.os << "time_s  mbps\n";
  for (const auto& p : series.points()) {
    ctx.os << std::fixed << std::setprecision(1) << std::setw(6) << p.t.to_seconds() << "  "
           << std::setprecision(ctx.precision) << p.value << '\n';
  }
}

void print_summary_row(const ReportContext& ctx, const std::string& label,
                       const stats::Summary& s) {
  if (s.empty()) {
    ctx.os << std::left << std::setw(34) << label << " (no samples)\n";
    return;
  }
  ctx.os << std::left << std::setw(34) << label << std::right << std::fixed
         << std::setprecision(ctx.precision) << "  avg=" << s.mean() << ' ' << ctx.unit
         << "  min=" << s.min() << ' ' << ctx.unit << "  max=" << s.max() << ' ' << ctx.unit
         << "  n=" << s.count() << '\n';
}

void print_confidence(const ReportContext& ctx, const std::string& label,
                      const stats::ConfidenceInterval& ci) {
  ctx.os << label << ": the actual average is within " << std::fixed
         << std::setprecision(ctx.precision) << ci.half_width << ' ' << ctx.unit
         << " of the observed " << ci.mean << ' ' << ctx.unit << ", with " << std::setprecision(0)
         << ci.confidence * 100.0 << "% confidence and " << std::setprecision(1)
         << ci.relative_precision() * 100.0 << "% relative precision (" << ci.samples
         << " batch samples)\n";
}

// --- JSON run manifests ------------------------------------------------

namespace {

void write_summary(JsonWriter& w, const stats::Summary& s) {
  w.begin_object();
  w.field("count", s.count());
  w.field("mean", s.mean());
  w.field("min", s.empty() ? 0.0 : s.min());
  w.field("max", s.empty() ? 0.0 : s.max());
  w.end_object();
}

void write_confidence(JsonWriter& w, const stats::ConfidenceInterval& ci) {
  w.begin_object();
  w.field("mean", ci.mean);
  w.field("half_width", ci.half_width);
  w.field("confidence", ci.confidence);
  w.field("relative_precision", ci.relative_precision());
  w.field("samples", ci.samples);
  w.end_object();
}

void write_gauge(JsonWriter& w, const sim::GaugeStat& g) {
  w.begin_object();
  w.field("count", g.count);
  w.field("mean", g.mean());
  w.field("min", g.min);
  w.field("max", g.max);
  w.end_object();
}

void write_metrics(JsonWriter& w, const sim::MetricsSnapshot& m) {
  w.begin_object();
  w.field("enabled", m.enabled);
  w.field("nodes", static_cast<std::uint64_t>(m.nodes));
  w.key("per_layer");
  w.begin_object();
  // Counters are declared grouped by layer, so a sequential scan emits
  // each layer's object exactly once.
  const char* open_layer = nullptr;
  for (std::size_t i = 0; i < sim::kCounterCount; ++i) {
    const auto c = static_cast<sim::Counter>(i);
    const char* layer = sim::counter_layer(c);
    if (open_layer == nullptr || std::string_view{open_layer} != layer) {
      if (open_layer != nullptr) w.end_object();
      w.key(layer);
      w.begin_object();
      open_layer = layer;
    }
    w.field(sim::counter_name(c), m.total(c));
  }
  if (open_layer != nullptr) w.end_object();
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (std::size_t i = 0; i < sim::kGaugeCount; ++i) {
    const auto g = static_cast<sim::Gauge>(i);
    w.key(sim::gauge_name(g));
    write_gauge(w, m.gauge(g));
  }
  w.end_object();
  w.end_object();
}

/// The §III.E feasibility verdict for the latest-notified follower, with
/// zero driver-reaction time (the network-only bound). `no_delay_verdict`
/// is the verdict when p1 never received a first packet.
void write_stopping_distance(JsonWriter& w, const TrialResult& r, const char* no_delay_verdict) {
  const bool have_delay = r.p1_initial_packet_delay_s >= 0.0;
  const StoppingAssessment a{r.config.speed_mps, r.config.vehicle_gap_m,
                             have_delay ? r.p1_initial_packet_delay_s : 0.0};
  w.begin_object();
  w.field("speed_mps", a.speed_mps);
  w.field("headway_m", a.headway_m);
  w.field("notification_delay_s", a.notification_delay_s);
  w.field("distance_during_notification_m", a.distance_during_notification());
  w.field("fraction_of_headway", a.fraction_of_headway());
  w.field("margin_m", a.margin(0.0));
  w.field("verdict", !have_delay               ? no_delay_verdict
                     : a.collision_avoided(0.0) ? "avoided"
                                                : "collision");
  w.end_object();
}

void write_resilience(JsonWriter& w, const TrialResult::Resilience& rz) {
  w.begin_object();
  w.field("faults_enabled", rz.faults_enabled);
  w.field("time_to_reroute_s", rz.time_to_reroute_s);
  w.field("delivery_ratio", rz.delivery_ratio);
  w.field("delivery_ratio_during_outage", rz.delivery_ratio_during_outage);
  w.field("delivery_ratio_after_outage", rz.delivery_ratio_after_outage);
  w.field("outage_start_s", rz.outage_start_s);
  w.field("outage_end_s", rz.outage_end_s);
  w.field("crashes", rz.crashes);
  w.field("injected_drops", rz.injected_drops);
  w.field("jam_bursts", rz.jam_bursts);
  w.end_object();
}

void write_trial_object(JsonWriter& w, const TrialResult& r) {
  w.begin_object();
  w.field("schema_version", static_cast<std::int64_t>(kManifestSchemaVersion));
  w.field("kind", "eblnet.trial");
  w.field("name", r.name);
  // The resolved config is its canonical scenario text, one string per
  // "name = value" line, so the manifest keeps no field list of its own.
  w.key("config");
  w.begin_array();
  std::istringstream lines{canonical_scenario_text(r.config)};
  for (std::string line; std::getline(lines, line);) w.value(line);
  w.end_array();
  w.field("events_executed", r.events_executed);

  w.key("delay");
  w.begin_object();
  w.key("p1");
  write_summary(w, r.p1_delay_summary());
  w.key("p2");
  write_summary(w, r.p2_delay_summary());
  w.field("p1_initial_packet_delay_s", r.p1_initial_packet_delay_s);
  w.field("p1_steady_state_delay_s", r.p1_steady_state_delay_s());
  w.end_object();

  w.key("throughput");
  w.begin_object();
  w.key("p1");
  write_summary(w, r.p1_throughput_summary());
  w.key("p1_ci");
  write_confidence(w, r.p1_throughput_ci);
  w.key("p2");
  write_summary(w, r.p2_throughput_summary());
  w.key("p2_ci");
  write_confidence(w, r.p2_throughput_ci);
  w.end_object();

  w.key("stopping_distance");
  write_stopping_distance(w, r, "no_data");

  w.key("trace_counters");
  w.begin_object();
  w.field("ifq_drops", r.ifq_drops);
  w.field("phy_collisions", r.phy_collisions);
  w.field("mac_retry_drops", r.mac_retry_drops);
  w.field("routing_control_sends", r.routing_control_sends);
  w.field("data_frame_sends", r.data_frame_sends);
  w.end_object();

  w.key("resilience");
  write_resilience(w, r.resilience);

  w.key("metrics");
  write_metrics(w, r.metrics);
  w.end_object();
}

void write_resilience_cell(JsonWriter& w, const ResilienceCell& cell) {
  const TrialResult& r = cell.result;
  w.begin_object();
  w.field("label", cell.label);
  w.field("axis", cell.axis);
  w.field("value", cell.value);
  w.field("name", r.name);
  w.field("events_executed", r.events_executed);

  w.key("resilience");
  write_resilience(w, r.resilience);

  const bool have_delay = r.p1_initial_packet_delay_s >= 0.0;
  const bool have_baseline = cell.baseline_initial_delay_s >= 0.0;
  w.field("p1_initial_packet_delay_s", r.p1_initial_packet_delay_s);
  w.field("baseline_initial_delay_s", cell.baseline_initial_delay_s);
  // Inflation of the safety-critical first-packet delay over the
  // fault-free baseline; 0 when either side is missing (the verdict
  // below carries the "never notified" case).
  w.field("delay_inflation_s", have_delay && have_baseline
                                   ? r.p1_initial_packet_delay_s - cell.baseline_initial_delay_s
                                   : 0.0);

  // Evaluated under the fault: a follower that never hears the brake
  // notification at all is its own verdict, worse than any finite delay.
  w.key("stopping_distance");
  write_stopping_distance(w, r, "never_notified");
  w.end_object();
}

}  // namespace

void write_json(std::ostream& os, const TrialResult& r) {
  JsonWriter w{os};
  write_trial_object(w, r);
  os << '\n';
}

void write_sweep_json(std::ostream& os, const std::string& name,
                      std::span<const TrialResult> results) {
  JsonWriter w{os};
  w.begin_object();
  w.field("schema_version", static_cast<std::int64_t>(kManifestSchemaVersion));
  w.field("kind", "eblnet.sweep");
  w.field("name", name);
  w.field("trial_count", static_cast<std::uint64_t>(results.size()));
  w.key("trials");
  w.begin_array();
  for (const auto& r : results) write_trial_object(w, r);
  w.end_array();

  std::uint64_t events = 0;
  sim::MetricsSnapshot merged;
  for (const auto& r : results) {
    events += r.events_executed;
    merged.merge(r.metrics);
  }
  w.key("aggregate");
  w.begin_object();
  w.field("events_executed", events);
  w.key("metrics");
  write_metrics(w, merged);
  w.end_object();
  w.end_object();
  os << '\n';
}

void write_resilience_json(std::ostream& os, const std::string& name,
                           std::span<const TrialResult> baselines,
                           std::span<const ResilienceCell> cells) {
  JsonWriter w{os};
  w.begin_object();
  w.field("schema_version", static_cast<std::int64_t>(kManifestSchemaVersion));
  w.field("kind", "eblnet.resilience");
  w.field("name", name);
  w.field("baseline_count", static_cast<std::uint64_t>(baselines.size()));
  w.key("baselines");
  w.begin_array();
  for (const auto& r : baselines) write_trial_object(w, r);
  w.end_array();
  w.field("cell_count", static_cast<std::uint64_t>(cells.size()));
  w.key("cells");
  w.begin_array();
  for (const auto& c : cells) write_resilience_cell(w, c);
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_traffic_json(std::ostream& os, const std::string& name, const TrafficConfig& cfg,
                        std::span<const TrafficRunResult> cells) {
  JsonWriter w{os};
  w.begin_object();
  w.field("schema_version", static_cast<std::int64_t>(kManifestSchemaVersion));
  w.field("kind", "eblnet.traffic");
  w.field("name", name);

  w.key("config");
  w.begin_object();
  std::uint64_t lanes_total = 0;
  for (const auto& r : cfg.flow.roads) lanes_total += static_cast<std::uint64_t>(r.lanes);
  w.field("roads", static_cast<std::uint64_t>(cfg.flow.roads.size()));
  w.field("lanes_total", lanes_total);
  w.field("road_length_m", cfg.flow.roads.empty() ? 0.0 : cfg.flow.roads.front().length_m);
  w.field("flow_rate_veh_per_s_per_lane", cfg.flow.flow_rate_veh_per_s_per_lane);
  w.field("max_vehicles", static_cast<std::uint64_t>(cfg.flow.max_vehicles));
  w.field("desired_speed_mps", cfg.flow.idm.desired_speed_mps);
  w.field("time_headway_s", cfg.flow.idm.time_headway_s);
  w.field("tick_s", cfg.flow.tick.to_seconds());
  w.field("warn_range_m", cfg.warn_range_m);
  w.field("reaction_s", cfg.reaction.to_seconds());
  w.field("policy_headway_scale", cfg.warned_policy.headway_scale);
  w.field("policy_speed_cap_mps", cfg.warned_policy.speed_cap_mps);
  w.field("incident_at_s", cfg.incident_at.to_seconds());
  w.field("incident_decel_mps2", cfg.incident_decel_mps2);
  w.field("congestion_speed_mps", cfg.congestion_speed_mps);
  w.field("duration_s", cfg.duration.to_seconds());
  w.field("seed", cfg.seed);
  w.end_object();

  w.field("cell_count", static_cast<std::uint64_t>(cells.size()));
  w.key("cells");
  w.begin_array();
  for (const auto& c : cells) {
    w.begin_object();
    w.field("name", c.name);
    w.field("penetration", c.penetration);
    w.field("vehicles_spawned", c.vehicles_spawned);
    w.field("equipped", c.equipped);
    w.field("warnings_originated", c.warnings_originated);
    w.field("warning_receptions", c.warning_receptions);
    w.field("reactions", c.reactions);
    w.field("shockwave_speed_mps", c.shockwave_speed_mps);
    w.field("shockwave_points", c.shockwave_points);
    w.field("congestion_onset_s", c.congestion_onset_s);
    w.field("slowed_vehicles", c.slowed_vehicles);
    w.field("final_mean_speed_mps", c.final_mean_speed_mps);
    w.field("events_executed", c.events_executed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace eblnet::core::report
