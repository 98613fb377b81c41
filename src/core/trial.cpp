#include "core/trial.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace eblnet::core {

std::vector<trace::DelaySample> TrialResult::p1_all() const {
  std::vector<trace::DelaySample> out = p1_middle;
  out.insert(out.end(), p1_trailing.begin(), p1_trailing.end());
  return out;
}

std::vector<trace::DelaySample> TrialResult::p2_all() const {
  std::vector<trace::DelaySample> out = p2_middle;
  out.insert(out.end(), p2_trailing.begin(), p2_trailing.end());
  return out;
}

double TrialResult::p1_steady_state_delay_s(std::size_t skip) const {
  stats::Summary s;
  for (const auto* flow : {&p1_middle, &p1_trailing}) {
    for (const auto& d : *flow) {
      if (d.seq >= skip) s.add(d.delay_seconds());
    }
  }
  return s.empty() ? -1.0 : s.mean();
}

std::size_t TrialResult::p1_transient_end_mser() const {
  std::vector<double> series;
  series.reserve(p1_middle.size());
  for (const auto& d : p1_middle) series.push_back(d.delay_seconds());
  return stats::mser5_truncation(series);
}

ScenarioConfig make_trial_config(std::size_t packet_bytes, MacType mac) {
  ScenarioConfig cfg;
  cfg.packet_bytes = packet_bytes;
  cfg.mac = mac;
  return cfg;
}

ScenarioConfig trial1_config() { return make_trial_config(1000, MacType::kTdma); }
ScenarioConfig trial2_config() { return make_trial_config(500, MacType::kTdma); }
ScenarioConfig trial3_config() { return make_trial_config(1000, MacType::k80211); }

namespace {

/// CI over the samples inside the platoon's communication window only
/// (zeros outside the window would make "average throughput" meaningless).
stats::ConfidenceInterval throughput_ci(const stats::TimeSeries& series, sim::Time from,
                                        sim::Time to) {
  std::vector<double> window;
  for (const auto& p : series.points()) {
    if (p.t >= from && p.t <= to) window.push_back(p.value);
  }
  if (window.size() < 20) {
    stats::Summary s;
    for (const double v : window) s.add(v);
    return stats::mean_confidence_interval(s);
  }
  return stats::batch_means_confidence_interval(window, 10);
}

/// Hull of the plan's scheduled fault events, as [start, end] seconds.
/// Permanent faults (zero duration) extend the window to `run_end`.
/// Returns {-1, -1} for an empty plan.
std::pair<double, double> outage_window(const sim::FaultPlan& plan, sim::Time run_end) {
  double start = -1.0, end = -1.0;
  for (const sim::FaultEvent& e : plan.events) {
    const double s = e.at.to_seconds();
    const double f = e.duration.is_zero() ? run_end.to_seconds() : (e.at + e.duration).to_seconds();
    if (start < 0.0 || s < start) start = s;
    if (f > end) end = f;
  }
  return {start, start < 0.0 ? -1.0 : end};
}

/// Application-level delivery ratios over the analyzer's offered packets.
/// Windowed ratios classify packets by send time against the outage hull.
void compute_delivery_ratios(TrialResult& r, const std::vector<trace::OfferedPacket>& offered) {
  if (offered.empty()) return;

  const double out_start = r.resilience.outage_start_s;
  const double out_end = r.resilience.outage_end_s;
  std::uint64_t delivered = 0, during = 0, during_ok = 0, after = 0, after_ok = 0;
  for (const trace::OfferedPacket& d : offered) {
    delivered += d.delivered ? 1 : 0;
    if (out_start < 0.0) continue;
    const double sent = d.sent.to_seconds();
    if (sent >= out_start && sent <= out_end) {
      ++during;
      during_ok += d.delivered ? 1 : 0;
    } else if (sent > out_end) {
      ++after;
      after_ok += d.delivered ? 1 : 0;
    }
  }
  r.resilience.delivery_ratio =
      static_cast<double>(delivered) / static_cast<double>(offered.size());
  if (during > 0)
    r.resilience.delivery_ratio_during_outage =
        static_cast<double>(during_ok) / static_cast<double>(during);
  if (after > 0)
    r.resilience.delivery_ratio_after_outage =
        static_cast<double>(after_ok) / static_cast<double>(after);
}

}  // namespace

TrialResult extract_trial_result(const ScenarioConfig& config, std::string name,
                                 const trace::TraceStore& records,
                                 stats::TimeSeries p1_throughput, stats::TimeSeries p2_throughput,
                                 TrialMetrics metrics, std::uint64_t events_executed,
                                 const sim::FaultController* faults) {
  TrialResult r;
  r.name = std::move(name);
  r.config = config;
  r.events_executed = events_executed;
  r.metrics = std::move(metrics);

  const trace::DelayAnalyzer delays{records};
  r.p1_middle = delays.flow(EblScenario::kP1Lead, EblScenario::kP1Middle);
  r.p1_trailing = delays.flow(EblScenario::kP1Lead, EblScenario::kP1Trailing);
  r.p2_middle = delays.flow(EblScenario::kP2Lead, EblScenario::kP2Middle);
  r.p2_trailing = delays.flow(EblScenario::kP2Lead, EblScenario::kP2Trailing);

  r.p1_throughput = std::move(p1_throughput);
  r.p2_throughput = std::move(p2_throughput);

  // Platoon 1 communicates from brake onset to the end of the run;
  // platoon 2 from t=0 until it departs.
  r.p1_throughput_ci = throughput_ci(r.p1_throughput, config.platoon1_brake_at, config.duration);
  r.p2_throughput_ci =
      throughput_ci(r.p2_throughput, sim::Time::zero(), config.resolved_platoon2_depart());

  {
    double initial = -1.0;
    for (const auto* flow : {&r.p1_middle, &r.p1_trailing}) {
      const double d = trace::DelayAnalyzer::initial_packet_delay_seconds(*flow);
      if (d >= 0.0 && (initial < 0.0 || d > initial)) initial = d;
    }
    // The *latest*-notified follower bounds the platoon's safety, so take
    // the max over followers.
    r.p1_initial_packet_delay_s = initial;
  }

  for (const auto& rec : records) {
    if (rec.action == net::TraceAction::kSend && rec.layer == net::TraceLayer::kMac) {
      if (net::is_routing_control(rec.type)) ++r.routing_control_sends;
      if (rec.type == net::PacketType::kTcpData || rec.type == net::PacketType::kUdpData)
        ++r.data_frame_sends;
      continue;
    }
    if (rec.action != net::TraceAction::kDrop) continue;
    if (rec.layer == net::TraceLayer::kIfq) ++r.ifq_drops;
    if (rec.layer == net::TraceLayer::kPhy && rec.reason == "COL") ++r.phy_collisions;
    if (rec.layer == net::TraceLayer::kMac && rec.reason == "RET") ++r.mac_retry_drops;
  }

  r.resilience.faults_enabled = !config.faults.empty();
  if (faults != nullptr) {
    r.resilience.crashes = faults->crashes().size();
    r.resilience.injected_drops = faults->injected_drops();
    r.resilience.jam_bursts = faults->jam_bursts();
  }
  if (config.enable_metrics) {
    const sim::GaugeStat reroute = r.metrics.gauge(sim::Gauge::kAodvRerouteSeconds);
    if (reroute.count > 0) r.resilience.time_to_reroute_s = reroute.mean();
  }
  std::tie(r.resilience.outage_start_s, r.resilience.outage_end_s) =
      outage_window(config.faults, config.duration);
  compute_delivery_ratios(r, delays.offered());
  return r;
}

void fold_ifq_residual(sim::MetricsRegistry& metrics, const net::Node& node) {
  const net::MacLayer* mac = node.mac();
  const net::PacketQueue* ifq = mac ? mac->interface_queue() : nullptr;
  if (ifq && ifq->length() > 0) metrics.add(node.id(), sim::Counter::kIfqResidual, ifq->length());
}

TrialResult run_trial(const ScenarioConfig& config, std::string name,
                      const std::function<void(EblScenario&)>& after_run) {
  EblScenario scenario{config};
  scenario.run();
  if (after_run) after_run(scenario);

  TrialMetrics snapshot;
  if (config.enable_metrics) {
    auto& metrics = scenario.env().metrics();
    for (std::size_t i = 0; i < scenario.node_count(); ++i)
      fold_ifq_residual(metrics, scenario.node(i));
    snapshot = metrics.snapshot();
  }

  return extract_trial_result(config, std::move(name), scenario.trace().records(),
                              scenario.throughput1().series(), scenario.throughput2().series(),
                              std::move(snapshot), scenario.env().scheduler().executed_count(),
                              &scenario.env().faults());
}

}  // namespace eblnet::core
