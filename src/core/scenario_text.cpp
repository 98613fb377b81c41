#include "core/scenario_text.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string_view>

namespace eblnet::core {

namespace {

/// Line-oriented canonical-text builder. Every emitter appends exactly
/// one "name = value\n" line; the fixed call order in
/// canonical_scenario_text() below IS the canonical field order.
class Canon {
 public:
  void line(std::string_view name, std::string_view v) {
    text_.append(name);
    text_.append(" = ");
    text_.append(v);
    text_.push_back('\n');
  }
  void str(std::string_view name, const char* v) { line(name, v); }
  void u64(std::string_view name, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    line(name, buf);
  }
  void i64(std::string_view name, std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    line(name, buf);
  }
  void boolean(std::string_view name, bool v) { line(name, v ? "true" : "false"); }
  void real(std::string_view name, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line(name, buf);
  }
  void time_ns(std::string_view name, sim::Time t) { i64(name, t.ns()); }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

std::string canonical_scenario_text(const ScenarioConfig& cfg) {
  Canon c;
  c.str("format", "eblnet.scenario/3");

  // --- the paper's variable parameters ---
  c.u64("packet_bytes", static_cast<std::uint64_t>(cfg.packet_bytes));
  c.str("mac", to_string(cfg.mac));
  c.str("routing", to_string(cfg.routing));

  c.boolean("use_arp", cfg.use_arp);
  if (cfg.use_arp) {
    c.time_ns("arp.retry_interval_ns", cfg.arp.retry_interval);
    c.u64("arp.max_retries", cfg.arp.max_retries);
    c.u64("arp.request_bytes", static_cast<std::uint64_t>(cfg.arp.request_bytes));
    c.u64("arp.reply_bytes", static_cast<std::uint64_t>(cfg.arp.reply_bytes));
    c.u64("arp.hold_per_destination", static_cast<std::uint64_t>(cfg.arp.hold_per_destination));
    c.boolean("arp.passive_learning", cfg.arp.passive_learning);
  }

  // --- the paper's fixed parameters ---
  c.u64("platoon_size", static_cast<std::uint64_t>(cfg.platoon_size));
  c.real("speed_mps", cfg.speed_mps);
  c.real("vehicle_gap_m", cfg.vehicle_gap_m);
  c.real("decel_mps2", cfg.decel_mps2);
  c.u64("ifq_capacity", static_cast<std::uint64_t>(cfg.ifq_capacity));

  c.boolean("use_red_queue", cfg.use_red_queue);
  if (cfg.use_red_queue) {
    c.u64("red.capacity", static_cast<std::uint64_t>(cfg.red.capacity));
    c.real("red.min_thresh", cfg.red.min_thresh);
    c.real("red.max_thresh", cfg.red.max_thresh);
    c.real("red.max_p", cfg.red.max_p);
    c.real("red.weight", cfg.red.weight);
    c.boolean("red.protect_routing", cfg.red.protect_routing);
  }

  // --- geometry / timing (the zero-means-auto depart is resolved) ---
  c.time_ns("platoon1_brake_at_ns", cfg.platoon1_brake_at);
  c.time_ns("platoon2_depart_ns", cfg.resolved_platoon2_depart());
  c.time_ns("duration_ns", cfg.duration);

  // --- traffic (EblScenario forces both payload sizes to packet_bytes) ---
  c.u64("ebl.packet_bytes", static_cast<std::uint64_t>(cfg.packet_bytes));
  c.real("ebl.cbr_rate_bps", cfg.ebl.cbr_rate_bps);
  c.u64("ebl.tcp.flavor", static_cast<std::uint64_t>(cfg.ebl.tcp.flavor));
  c.u64("ebl.tcp.packet_size", static_cast<std::uint64_t>(cfg.packet_bytes));
  c.real("ebl.tcp.initial_window", cfg.ebl.tcp.initial_window);
  c.real("ebl.tcp.max_window", cfg.ebl.tcp.max_window);
  c.real("ebl.tcp.initial_ssthresh", cfg.ebl.tcp.initial_ssthresh);
  c.u64("ebl.tcp.dupack_threshold", cfg.ebl.tcp.dupack_threshold);
  c.time_ns("ebl.tcp.min_rto_ns", cfg.ebl.tcp.min_rto);
  c.time_ns("ebl.tcp.max_rto_ns", cfg.ebl.tcp.max_rto);
  c.time_ns("ebl.tcp.initial_rto_ns", cfg.ebl.tcp.initial_rto);
  c.u64("ebl.tcp.max_backoff", cfg.ebl.tcp.max_backoff);
  c.boolean("ebl.sink.delayed_ack", cfg.ebl.sink.delayed_ack);
  c.time_ns("ebl.sink.ack_delay_ns", cfg.ebl.sink.ack_delay);

  // --- closed-loop braking ---
  c.boolean("reactive.enabled", cfg.reactive.enabled);
  if (cfg.reactive.enabled) {
    c.real("reactive.decel_mps2", cfg.reactive.decel_mps2);
    c.time_ns("reactive.reaction_ns", cfg.reactive.reaction);
    c.real("reactive.min_gap_m", cfg.reactive.min_gap_m);
  }

  // --- CAM/BSM beaconing ---
  c.boolean("beacon.enabled", cfg.beacon.enabled);
  if (cfg.beacon.enabled) {
    c.time_ns("beacon.interval_ns", cfg.beacon.interval);
    c.u64("beacon.payload_bytes", static_cast<std::uint64_t>(cfg.beacon.payload_bytes));
    c.u64("beacon.priority", cfg.beacon.priority);
    c.u64("beacon.port", cfg.beacon.port);
  }

  // --- the chosen MAC's parameters only ---
  if (cfg.mac == MacType::k80211) {
    const auto& m = cfg.mac80211;
    c.real("mac80211.data_rate_bps", m.data_rate_bps);
    c.real("mac80211.basic_rate_bps", m.basic_rate_bps);
    c.time_ns("mac80211.slot_time_ns", m.slot_time);
    c.time_ns("mac80211.sifs_ns", m.sifs);
    c.time_ns("mac80211.difs_ns", m.difs);
    c.time_ns("mac80211.plcp_overhead_ns", m.plcp_overhead);
    c.u64("mac80211.cw_min", m.cw_min);
    c.u64("mac80211.cw_max", m.cw_max);
    c.u64("mac80211.short_retry_limit", m.short_retry_limit);
    c.u64("mac80211.long_retry_limit", m.long_retry_limit);
    c.u64("mac80211.rts_threshold", static_cast<std::uint64_t>(m.rts_threshold));
    c.u64("mac80211.data_header_bytes", static_cast<std::uint64_t>(m.data_header_bytes));
    c.u64("mac80211.ack_bytes", static_cast<std::uint64_t>(m.ack_bytes));
    c.u64("mac80211.rts_bytes", static_cast<std::uint64_t>(m.rts_bytes));
    c.u64("mac80211.cts_bytes", static_cast<std::uint64_t>(m.cts_bytes));
    c.time_ns("mac80211.timeout_slack_ns", m.timeout_slack);
  } else if (cfg.mac == MacType::kEdca) {
    const auto& e = cfg.edca;
    c.real("edca.data_rate_bps", e.data_rate_bps);
    c.real("edca.basic_rate_bps", e.basic_rate_bps);
    c.time_ns("edca.slot_time_ns", e.slot_time);
    c.time_ns("edca.sifs_ns", e.sifs);
    c.time_ns("edca.plcp_overhead_ns", e.plcp_overhead);
    c.u64("edca.data_header_bytes", static_cast<std::uint64_t>(e.data_header_bytes));
    c.u64("edca.ack_bytes", static_cast<std::uint64_t>(e.ack_bytes));
    c.u64("edca.short_retry_limit", e.short_retry_limit);
    c.time_ns("edca.timeout_slack_ns", e.timeout_slack);
    c.u64("edca.ac_queue_capacity", static_cast<std::uint64_t>(e.ac_queue_capacity));
    for (std::size_t i = 0; i < mac::kAccessCategoryCount; ++i) {
      c.str("edca.ac", mac::to_string(static_cast<mac::AccessCategory>(i)));
      c.u64("edca.ac.aifsn", e.ac[i].aifsn);
      c.u64("edca.ac.cw_min", e.ac[i].cw_min);
      c.u64("edca.ac.cw_max", e.ac[i].cw_max);
    }
  } else {
    const auto& t = cfg.tdma;
    c.real("tdma.data_rate_bps", t.data_rate_bps);
    c.u64("tdma.num_slots", static_cast<std::uint64_t>(t.num_slots));
    c.u64("tdma.max_packet_bytes", static_cast<std::uint64_t>(t.max_packet_bytes));
    c.u64("tdma.data_header_bytes", static_cast<std::uint64_t>(t.data_header_bytes));
    c.time_ns("tdma.plcp_overhead_ns", t.plcp_overhead);
    c.time_ns("tdma.guard_time_ns", t.guard_time);
  }

  // --- phy / channel ---
  c.real("phy.tx_power_w", cfg.phy.tx_power_w);
  c.real("phy.rx_threshold_w", cfg.phy.rx_threshold_w);
  c.real("phy.cs_threshold_w", cfg.phy.cs_threshold_w);
  c.real("phy.capture_ratio", cfg.phy.capture_ratio);
  c.str("propagation", to_string(cfg.propagation));
  if (cfg.propagation == PropagationType::kNakagami) {
    c.real("nakagami_m", cfg.nakagami_m);
    c.boolean("nakagami_node_streams", cfg.nakagami_node_streams);
  }
  c.boolean("blockage.enabled", cfg.blockage.enabled);
  if (cfg.blockage.enabled) {
    c.real("blockage.half_width_m", cfg.blockage.half_width_m);
    c.real("blockage.corner_loss_db", cfg.blockage.corner_loss_db);
  }
  c.u64("channel.grid_min_phys", static_cast<std::uint64_t>(cfg.channel.grid_min_phys));
  c.real("channel.grid_max_speed_mps", cfg.channel.grid_max_speed_mps);
  c.time_ns("channel.grid_rebucket_period_ns", cfg.channel.grid_rebucket_period);

  // --- the chosen routing protocol's parameters only (static routes
  // have none) ---
  if (cfg.routing == RoutingType::kAodv) {
    const auto& a = cfg.aodv;
    c.time_ns("aodv.active_route_timeout_ns", a.active_route_timeout);
    c.time_ns("aodv.my_route_timeout_ns", a.my_route_timeout);
    c.time_ns("aodv.node_traversal_time_ns", a.node_traversal_time);
    c.u64("aodv.net_diameter", a.net_diameter);
    c.u64("aodv.rreq_retries", a.rreq_retries);
    c.u64("aodv.ttl_start", a.ttl_start);
    c.u64("aodv.ttl_increment", a.ttl_increment);
    c.u64("aodv.ttl_threshold", a.ttl_threshold);
    c.time_ns("aodv.hello_interval_ns", a.hello_interval);
    c.u64("aodv.allowed_hello_loss", a.allowed_hello_loss);
    c.boolean("aodv.hello_installs_routes", a.hello_installs_routes);
    c.u64("aodv.buffer_capacity", static_cast<std::uint64_t>(a.buffer_capacity));
    c.time_ns("aodv.buffer_timeout_ns", a.buffer_timeout);
    c.time_ns("aodv.broadcast_jitter_ns", a.broadcast_jitter);
    c.time_ns("aodv.bcast_id_save_ns", a.bcast_id_save);
  } else if (cfg.routing == RoutingType::kDsdv) {
    const auto& d = cfg.dsdv;
    c.time_ns("dsdv.periodic_update_interval_ns", d.periodic_update_interval);
    c.time_ns("dsdv.route_lifetime_ns", d.route_lifetime);
    c.time_ns("dsdv.broadcast_jitter_ns", d.broadcast_jitter);
    c.time_ns("dsdv.min_triggered_gap_ns", d.min_triggered_gap);
  }

  c.time_ns("throughput_sample_interval_ns", cfg.throughput_sample_interval);

  // --- determinism knobs ---
  c.u64("seed", cfg.seed);
  c.boolean("enable_trace", cfg.enable_trace);

  // --- fault plan (an empty plan is bit-identity, so it contributes
  // nothing — not even its rng_seed) ---
  c.boolean("faults.enabled", !cfg.faults.empty());
  if (!cfg.faults.empty()) {
    c.u64("faults.rng_seed", cfg.faults.rng_seed);
    c.u64("faults.event_count", static_cast<std::uint64_t>(cfg.faults.events.size()));
    for (const sim::FaultEvent& e : cfg.faults.events) {
      c.str("faults.event.kind", sim::to_string(e.kind));
      c.time_ns("faults.event.at_ns", e.at);
      c.time_ns("faults.event.duration_ns", e.duration);
      c.u64("faults.event.node", e.node);
      c.u64("faults.event.peer", e.peer);
      c.real("faults.event.magnitude", e.magnitude);
      c.real("faults.event.x", e.x);
      c.real("faults.event.y", e.y);
      c.real("faults.event.radius", e.radius);
      c.i64("faults.event.rf_channel", e.rf_channel);
      c.time_ns("faults.event.period_ns", e.period);
      c.time_ns("faults.event.burst_ns", e.burst);
    }
  }

  c.boolean("enable_metrics", cfg.enable_metrics);
  return c.take();
}

}  // namespace eblnet::core
