// The four benchmark workloads. Each is a closed batch: a fixed list of
// scenarios, generated from the --seed argument, run back to back through
// core::Runner. Around every call into the program the benchmark times a
// phase (construct, run, extract, teardown per scenario; report per
// batch); on traced batches those phases become spans, the metrics
// registry is on, and the per-layer numbers are computed from the phase
// times plus the counters the program already exposes.

#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "app/beacon.hpp"
#include "core/report.hpp"
#include "core/safety.hpp"
#include "core/scenario.hpp"
#include "core/scenario_builder.hpp"
#include "phy/intersection_blockage.hpp"

namespace perfbench {
namespace {

using namespace eblnet;

// ---- inputs -------------------------------------------------------------

constexpr std::size_t kPaperSeeds = 8;  ///< paper_sweep: 3 trials x 8 seeds
constexpr unsigned kPaperJobs = 2;      ///< half of a 4-core host

constexpr std::size_t kHighwayVehicles = 20000;
const sim::Time kHighwayDuration = sim::Time::seconds(std::int64_t{16});

const std::vector<double> kTrafficPenetrations{0.0, 0.5, 1.0};

const std::vector<double> kBeaconRatesHz{10.0, 25.0};
constexpr std::size_t kBeaconPlatoon = 25;  ///< 2 x 25 = 50 vehicles
constexpr double kBeaconHalfWidthM = 6.0;
constexpr double kBeaconCornerLossDb = 10.0;
constexpr double kBeaconNearM = 100.0;  ///< near/far split of the BRR check
const sim::Time kBeaconMeasureStart = sim::Time::seconds(std::int64_t{8});
const sim::Time kBeaconDuration = sim::Time::seconds(std::int64_t{20});

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Scenario seed `index` of the set derived from the --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // 31 bits keep the seeds readable in manifests; 0 is avoided.
  return (splitmix64(splitmix64(seed) + index) & 0x7fffffffULL) | 1ULL;
}

/// The paper's calibrated 802.11 stack stretched along a highway (the
/// perf_scale end-to-end scenario): 100 m headway, carrier sense pulled
/// in to the decode range, network-wide AODV floods, two-ray, no trace.
core::TrialSpec highway_spec(std::uint64_t seed) {
  return {core::ScenarioBuilder::trial(1000, core::MacType::k80211)
              .platoon_size(kHighwayVehicles / 2)
              .duration(kHighwayDuration)
              .trace(false)
              .seed(derive_seed(seed, 0))
              .mutate([](core::ScenarioConfig& c) {
                c.vehicle_gap_m = 100.0;
                c.phy.cs_threshold_w = c.phy.rx_threshold_w;
                c.aodv.net_diameter = 600;
                c.aodv.ttl_start = 600;
                c.ebl.cbr_rate_bps = 1.2e5;
              })
              .build(),
          "highway_grid"};
}

/// The traffic_sweep quick highway: 8 lanes x 10 km, 5,000-vehicle cap,
/// an incident at t = 400 s held for 180 s.
core::TrafficConfig traffic_config(std::uint64_t seed, double penetration) {
  core::TrafficConfig cfg;
  cfg.enabled = true;
  cfg.flow = mobility::TrafficFlowParams::highway(8, 10000.0, 0.8);
  cfg.flow.max_vehicles = 5000;
  cfg.duration = sim::Time::seconds(std::int64_t{1300});
  cfg.incident_at = sim::Time::seconds(std::int64_t{400});
  cfg.incident_hold = sim::Time::seconds(std::int64_t{180});
  cfg.incident_decel_mps2 = 6.0;
  cfg.penetration = penetration;
  cfg.seed = derive_seed(seed, 0);  // one traffic stream for every cell
  return cfg;
}

/// intersection_beacon's dense cell: 50 parked vehicles beaconing over
/// EDCA, Nakagami pair streams, corner blockage, quiesced EBL streams.
core::TrialSpec beacon_spec(std::uint64_t seed, std::size_t cell) {
  const double rate_hz = kBeaconRatesHz.at(cell);
  return {core::ScenarioBuilder{}
              .platoon_size(kBeaconPlatoon)
              .duration(kBeaconDuration)
              .routing(core::RoutingType::kStatic)
              .propagation(core::PropagationType::kNakagami, 3.0)
              .nakagami_node_streams()
              .with_intersection_blockage(kBeaconHalfWidthM, kBeaconCornerLossDb)
              .with_edca()
              .with_beacons(sim::Time::seconds(1.0 / rate_hz))
              .trace(false)
              .seed(derive_seed(seed, cell))
              .mutate([](core::ScenarioConfig& c) {
                c.platoon2_depart = kBeaconDuration + sim::Time::seconds(std::int64_t{1});
                c.ebl.cbr_rate_bps = 1.0;
                c.phy.tx_power_w /= 16.0;
              })
              .build(),
          "beacon_dense/" + std::to_string(static_cast<int>(rate_hz)) + "Hz"};
}

// ---- fingerprint ----------------------------------------------------------

class Fnv {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(sim::Time t) { mix(static_cast<std::uint64_t>(t.ns())); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Simulated statistics of one trial. Events executed is left out on
/// purpose: an event-queue change may cut it without changing the model.
void mix_trial(Fnv& f, const core::TrialResult& r) {
  for (const auto* flow : {&r.p1_middle, &r.p1_trailing, &r.p2_middle, &r.p2_trailing}) {
    f.mix(std::uint64_t{flow->size()});
    for (const trace::DelaySample& s : *flow) {
      f.mix(s.seq);
      f.mix(s.sent);
      f.mix(s.received);
    }
  }
  for (const stats::TimeSeries* ts : {&r.p1_throughput, &r.p2_throughput}) {
    f.mix(std::uint64_t{ts->size()});
    for (const stats::TimeSeries::Point& p : ts->points()) {
      f.mix(p.t);
      f.mix(p.value);
    }
  }
  f.mix(r.p1_initial_packet_delay_s);
  f.mix(r.ifq_drops);
  f.mix(r.phy_collisions);
  f.mix(r.mac_retry_drops);
  f.mix(r.routing_control_sends);
  f.mix(r.data_frame_sends);
}

void mix_traffic(Fnv& f, const core::TrafficRunResult& r) {
  f.mix(r.penetration);
  f.mix(r.vehicles_spawned);
  f.mix(r.equipped);
  f.mix(r.warnings_originated);
  f.mix(r.warning_receptions);
  f.mix(r.reactions);
  f.mix(r.shockwave_speed_mps);
  f.mix(r.shockwave_points);
  f.mix(r.congestion_onset_s);
  f.mix(r.slowed_vehicles);
  f.mix(r.final_mean_speed_mps);
}

// ---- per-scenario execution ------------------------------------------------

/// Host-side costs and program counters of one scenario; summed over a
/// batch to give the per-layer metrics.
struct Tally {
  sim::MetricsSnapshot metrics;
  std::size_t trials{0};
  double wait_s{0.0};  ///< runner queue wait
  double busy_s{0.0};  ///< whole scenario span
  double construct_s{0.0};
  double run_s{0.0};
  double extract_s{0.0};
  double teardown_s{0.0};
  double sim_s{0.0};
  std::uint64_t nodes{0};
  std::uint64_t events{0};
  std::uint64_t allocs_setup{0};
  std::uint64_t allocs_run{0};
  std::uint64_t trace_records{0};
  std::uint64_t broadcasts{0};
  std::uint64_t pair_evals{0};
  std::uint64_t batch_lanes{0};
  std::uint64_t batch_culled{0};
  std::uint64_t rebuckets{0};
  std::uint64_t ticks{0};
  std::uint64_t spawned{0};
  double tick_cell_run_s{0.0};  ///< traffic_idm p = 0 cell only
  std::uint64_t tick_cell_ticks{0};

  void take_channel(const phy::Channel& c) {
    broadcasts = c.broadcasts();
    pair_evals = c.pair_evaluations();
    batch_lanes = c.batch_lanes();
    batch_culled = c.batch_culled();
    rebuckets = c.grid_rebuckets();
  }

  void add(const Tally& o) {
    metrics.merge(o.metrics);
    trials += o.trials;
    wait_s += o.wait_s;
    busy_s += o.busy_s;
    construct_s += o.construct_s;
    run_s += o.run_s;
    extract_s += o.extract_s;
    teardown_s += o.teardown_s;
    sim_s += o.sim_s;
    nodes += o.nodes;
    events += o.events;
    allocs_setup += o.allocs_setup;
    allocs_run += o.allocs_run;
    trace_records += o.trace_records;
    broadcasts += o.broadcasts;
    pair_evals += o.pair_evals;
    batch_lanes += o.batch_lanes;
    batch_culled += o.batch_culled;
    rebuckets += o.rebuckets;
    ticks += o.ticks;
    spawned += o.spawned;
    tick_cell_run_s += o.tick_cell_run_s;
    tick_cell_ticks += o.tick_cell_ticks;
  }
};

/// Shared by every scenario of one batch (read-only on the workers).
struct BatchContext {
  Tracer& tracer;
  bool traced;
  std::uint64_t runner_span;
  Clock::time_point submitted;
  std::uint64_t scenario_base;
};

template <typename Out>
struct Scenario {
  Out out{};
  Tally tally;
  std::string error;  ///< what() of an exception the scenario threw
};

/// Run one scenario inside its runner span. `body(tally, span, id)`
/// returns the scenario's output; an exception is recorded, not rethrown,
/// so one bad scenario counts as failed without aborting the batch.
template <typename Out, typename Body>
Scenario<Out> run_in_span(const BatchContext& ctx, std::size_t index, Body&& body) {
  Scenario<Out> s;
  const std::uint64_t id = ctx.scenario_base + index + 1;
  s.tally.wait_s = seconds_between(ctx.submitted, Clock::now());
  Phase span{ctx.tracer, "scenario", ctx.runner_span, id, s.tally.wait_s};
  try {
    s.out = body(s.tally, span.id(), id);
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.tally.busy_s = span.stop();
  s.tally.trials = 1;
  return s;
}

/// Optional workload hooks around an intersection-scenario run.
struct EblHooks {
  std::function<void(core::EblScenario&)> before_run;  ///< attach observers
  std::function<void(core::EblScenario&)> run;         ///< default: run()
  std::function<void(core::EblScenario&)> after_run;   ///< read workload outputs
};

/// core::run_trial, phase by phase: construct, run, extract (metrics
/// snapshot with the residual-queue fold, then extract_trial_result) and
/// teardown, each timed and, on traced batches, recorded as a span.
core::TrialResult run_ebl(const BatchContext& ctx, const core::TrialSpec& spec, Tally& t,
                          std::uint64_t parent, std::uint64_t id, const EblHooks& hooks = {}) {
  std::unique_ptr<core::EblScenario> s;
  {
    const std::uint64_t a0 = thread_alloc_count();
    Phase p{ctx.tracer, "construct", parent, id};
    s = std::make_unique<core::EblScenario>(spec.config);
    t.construct_s += p.stop();
    t.allocs_setup += thread_alloc_count() - a0;
  }
  if (hooks.before_run) hooks.before_run(*s);
  {
    const std::uint64_t a0 = thread_alloc_count();
    Phase p{ctx.tracer, "run", parent, id};
    if (hooks.run) {
      hooks.run(*s);
    } else {
      s->run();
    }
    t.run_s += p.stop();
    t.allocs_run += thread_alloc_count() - a0;
  }
  core::TrialResult result;
  {
    Phase p{ctx.tracer, "extract", parent, id};
    if (hooks.after_run) hooks.after_run(*s);
    core::TrialMetrics snapshot;
    if (spec.config.enable_metrics) {
      auto& metrics = s->env().metrics();
      for (std::size_t i = 0; i < s->node_count(); ++i) {
        const net::MacLayer* mac = s->node(i).mac();
        const net::PacketQueue* ifq = mac ? mac->interface_queue() : nullptr;
        if (ifq && ifq->length() > 0)
          metrics.add(static_cast<std::uint32_t>(i), sim::Counter::kIfqResidual, ifq->length());
      }
      snapshot = metrics.snapshot();
    }
    result = core::extract_trial_result(spec.config, spec.name, s->trace().records(),
                                        s->throughput1().series(), s->throughput2().series(),
                                        std::move(snapshot),
                                        s->env().scheduler().executed_count(),
                                        &s->env().faults());
    t.extract_s += p.stop();
  }
  t.metrics = result.metrics;
  t.nodes = s->node_count();
  t.events = s->env().scheduler().executed_count();
  t.sim_s = spec.config.duration.to_seconds();
  t.trace_records = s->trace().size();
  t.take_channel(s->channel());
  {
    Phase p{ctx.tracer, "teardown", parent, id};
    s.reset();
    t.teardown_s += p.stop();
  }
  return result;
}

// ---- batch plumbing ----------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, LayerMetric> layer_metrics(const Tally& t, unsigned jobs,
                                                 double runner_wall_s, double report_s) {
  const sim::MetricsSnapshot& m = t.metrics;
  const auto c = [&m](sim::Counter k) { return static_cast<double>(m.total(k)); };
  using C = sim::Counter;
  const double rx_ok = c(C::kPhyRxOk);
  const double rx_started =
      rx_ok + c(C::kPhyRxCollision) + c(C::kPhyRxCaptured) + c(C::kPhyRxAbortedByTx);
  const double tdma_slots = c(C::kTdmaSlotsUsed) + c(C::kTdmaSlotsIdle);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"core.setup_s_per_node", {"s", ratio(t.construct_s, d(t.nodes))}},
      {"net.allocs_setup", {"count", d(t.allocs_setup)}},
      {"core.teardown_s", {"s", t.teardown_s}},
      {"core.extract_s", {"s", t.extract_s}},
      {"trace.records", {"count", d(t.trace_records)}},
      {"core.report_s", {"s", report_s}},
      {"core.runner_busy_ratio", {"ratio", ratio(t.busy_s, jobs * runner_wall_s)}},
      {"core.runner_wait_s", {"s", ratio(t.wait_s, d(t.trials))}},
      {"sim.run_s", {"s", t.run_s}},
      {"sim.events", {"count", d(t.events)}},
      {"sim.ns_per_event", {"ns", ratio(t.run_s * 1e9, d(t.events))}},
      {"sim.events_per_sim_s", {"1/s", ratio(d(t.events), t.sim_s)}},
      {"phy.broadcasts", {"count", d(t.broadcasts)}},
      {"phy.pair_evals_per_tx", {"ratio", ratio(d(t.pair_evals), d(t.broadcasts))}},
      {"phy.batch_survivor_ratio",
       {"ratio", ratio(d(t.batch_lanes - t.batch_culled), d(t.batch_lanes))}},
      {"phy.grid_rebuckets", {"count", d(t.rebuckets)}},
      {"phy.rx_ok", {"count", rx_ok}},
      {"phy.rx_collision", {"count", c(C::kPhyRxCollision)}},
      {"phy.cs_busy", {"count", c(C::kPhyCsBusy)}},
      {"phy.rx_ok_ratio", {"ratio", ratio(rx_ok, rx_started)}},
      {"mac.tx_data", {"count", c(C::kMacTxData)}},
      {"mac.retries", {"count", c(C::kMacRetries)}},
      {"mac.backoff_slots", {"count", c(C::kMacBackoffSlots)}},
      {"mac.internal_collisions", {"count", c(C::kMacInternalCollisions)}},
      {"mac.tdma_idle_slot_ratio", {"ratio", ratio(c(C::kTdmaSlotsIdle), tdma_slots)}},
      {"queue.enqueued", {"count", c(C::kIfqEnqueued)}},
      {"queue.dropped", {"count", c(C::kIfqDropped)}},
      {"queue.depth_mean", {"packets", m.gauge(sim::Gauge::kIfqDepth).mean()}},
      {"routing.rreq_sent", {"count", c(C::kAodvRreqSent)}},
      {"routing.rreq_forwarded", {"count", c(C::kAodvRreqForwarded)}},
      {"routing.discoveries", {"count", c(C::kAodvDiscoveries)}},
      {"transport.tcp_data_sent", {"count", c(C::kTcpDataSent)}},
      {"transport.retransmit_ratio",
       {"ratio", ratio(c(C::kTcpRetransmits), c(C::kTcpDataSent))}},
      {"app.delivery_ratio",
       {"ratio", ratio(c(C::kAppMessagesDelivered), c(C::kAppMessagesGenerated))}},
      {"app.beacon_sent", {"count", c(C::kAppBeaconSent)}},
      {"app.beacon_rx_per_tx",
       {"ratio", ratio(c(C::kAppBeaconReceived), c(C::kAppBeaconSent))}},
      {"mobility.ticks", {"count", d(t.ticks)}},
      {"mobility.tick_us", {"us", ratio(t.tick_cell_run_s * 1e6, d(t.tick_cell_ticks))}},
      {"mobility.vehicles_spawned", {"count", d(t.spawned)}},
      {"net.allocs_per_event", {"ratio", ratio(d(t.allocs_run), d(t.events))}},
  };
}

/// A batch's outputs in input order; `errors[i]` is non-empty when
/// scenario i threw (its output is then default-constructed).
template <typename Out>
struct BatchRuns {
  std::vector<Out> outs;
  std::vector<std::string> errors;
};

/// Runs `n` scenarios through a Runner of `jobs` workers inside the
/// workload and runner spans, then the report, and fills the timings of
/// `out`. `scenario(tally, span, id, i)` returns scenario i's output;
/// `report(os, outs)` writes the batch manifest.
template <typename Out, typename ScenarioFn, typename ReportFn>
BatchRuns<Out> run_batch(const RunOptions& opts, Tracer& tracer, unsigned jobs, std::size_t n,
                         const ScenarioFn& scenario, const ReportFn& report, BatchOutcome& out) {
  Phase workload{tracer, "workload", 0, 0};
  const core::Runner runner{jobs};
  Phase runner_span{tracer, "runner", workload.id(), 0};
  const BatchContext ctx{tracer, opts.traced, runner_span.id(), Clock::now(), opts.scenario_base};
  std::vector<Scenario<Out>> runs = runner.map(n, [&](std::size_t i) {
    return run_in_span<Out>(ctx, i, [&](Tally& t, std::uint64_t span, std::uint64_t id) {
      return scenario(ctx, t, span, id, i);
    });
  });
  const double runner_wall_s = runner_span.stop();

  BatchRuns<Out> batch;
  Tally total;
  for (Scenario<Out>& r : runs) {
    batch.outs.push_back(std::move(r.out));
    batch.errors.push_back(std::move(r.error));
    total.add(r.tally);
  }

  std::ostringstream manifest;
  Phase report_span{tracer, "report", workload.id(), 0};
  report(manifest, batch.outs);
  const double report_s = report_span.stop();
  out.wall_s = workload.stop();

  out.attempted = n;
  out.setup_s = total.construct_s;
  if (opts.traced) out.layers = layer_metrics(total, runner.jobs(), runner_wall_s, report_s);
  for (const std::string& e : batch.errors)
    if (!e.empty()) out.failures.push_back("threw: " + e);
  return batch;
}

// ---- workloads -----------------------------------------------------------------

BatchOutcome run_highway(const RunOptions& opts, Tracer& tracer) {
  core::TrialSpec spec = highway_spec(opts.seed);
  spec.config.enable_metrics = opts.traced;
  std::uint64_t delivered = 0, rreq_forwarded = 0;
  std::uint64_t phy_tx = 0, phy_rx_ok = 0, phy_rx_collision = 0;

  BatchOutcome out;
  const auto batch = run_batch<core::TrialResult>(
      opts, tracer, 1, 1,
      [&](const BatchContext& ctx, Tally& t, std::uint64_t span, std::uint64_t id, std::size_t) {
        EblHooks hooks;
        hooks.after_run = [&](core::EblScenario& s) {
          for (core::PlatoonEbl* ebl : {&s.ebl1(), &s.ebl2()})
            for (std::size_t l = 0; l < ebl->link_count(); ++l)
              delivered += ebl->link(l).sink().packets_received();
          for (std::size_t p = 0; p < s.node_count(); ++p) {
            rreq_forwarded += s.aodv(p).stats().rreq_forwarded;
            phy_tx += s.phy(p).tx_count();
            phy_rx_ok += s.phy(p).rx_ok_count();
            phy_rx_collision += s.phy(p).rx_collision_count();
          }
        };
        return run_ebl(ctx, spec, t, span, id, hooks);
      },
      [](std::ostream& os, const auto& trials) {
        core::report::write_sweep_json(os, "highway_grid", trials);
      },
      out);

  Fnv f;
  mix_trial(f, batch.outs.front());
  f.mix(delivered);
  f.mix(rreq_forwarded);
  f.mix(phy_tx);
  f.mix(phy_rx_ok);
  f.mix(phy_rx_collision);
  out.fingerprint = f.value();
  if (batch.errors.front().empty()) {
    const std::string why = check_highway(phy_rx_ok, rreq_forwarded);
    if (!why.empty()) out.failures.push_back(spec.name + ": " + why);
  }
  return out;
}

BatchOutcome run_traffic(const RunOptions& opts, Tracer& tracer) {
  BatchOutcome out;
  const auto batch = run_batch<core::TrafficRunResult>(
      opts, tracer, 1, kTrafficPenetrations.size(),
      [&](const BatchContext& ctx, Tally& t, std::uint64_t span, std::uint64_t id,
          std::size_t i) {
        const double p = kTrafficPenetrations[i];
        std::unique_ptr<core::TrafficScenario> s;
        {
          const std::uint64_t a0 = thread_alloc_count();
          Phase ph{ctx.tracer, "construct", span, id};
          s = std::make_unique<core::TrafficScenario>(traffic_config(opts.seed, p));
          t.construct_s += ph.stop();
          t.allocs_setup += thread_alloc_count() - a0;
        }
        s->env().metrics().set_enabled(ctx.traced);
        {
          const std::uint64_t a0 = thread_alloc_count();
          Phase ph{ctx.tracer, "run", span, id};
          s->run();
          const double run_s = ph.stop();
          t.run_s += run_s;
          t.allocs_run += thread_alloc_count() - a0;
          if (p == 0.0) {
            t.tick_cell_run_s = run_s;
            t.tick_cell_ticks = s->flow().ticks_executed();
          }
        }
        core::TrafficRunResult r;
        {
          Phase ph{ctx.tracer, "extract", span, id};
          r = s->result("p=" + std::to_string(p));
          t.metrics = s->env().metrics().snapshot();
          t.extract_s += ph.stop();
        }
        t.nodes = s->equipped_count();
        t.events = s->env().scheduler().executed_count();
        t.sim_s = s->config().duration.to_seconds();
        t.ticks = s->flow().ticks_executed();
        t.spawned = r.vehicles_spawned;
        t.take_channel(s->channel());
        {
          Phase ph{ctx.tracer, "teardown", span, id};
          s.reset();
          t.teardown_s += ph.stop();
        }
        return r;
      },
      [&](std::ostream& os, const auto& cells) {
        core::report::write_traffic_json(os, "traffic_idm", traffic_config(opts.seed, 0.0),
                                         cells);
      },
      out);

  Fnv f;
  for (std::size_t i = 0; i < batch.outs.size(); ++i) {
    mix_traffic(f, batch.outs[i]);
    if (!batch.errors[i].empty()) continue;
    const std::string why = check_traffic(batch.outs[i]);
    if (!why.empty()) out.failures.push_back(batch.outs[i].name + ": " + why);
  }
  out.fingerprint = f.value();
  return out;
}

BatchOutcome run_beacon(const RunOptions& opts, Tracer& tracer) {
  /// Window-gated beacon statistics of one cell.
  struct Cell {
    std::vector<std::uint64_t> rx_pairs;  ///< receptions, [rx * n + tx]
    std::vector<std::uint64_t> sent;      ///< beacons sent, per node
    double near_los_brr{0.0};
    double far_nlos_brr{0.0};
  };
  const std::size_t n_cells = kBeaconRatesHz.size();
  std::vector<core::TrialSpec> specs;
  for (std::size_t c = 0; c < n_cells; ++c) {
    specs.push_back(beacon_spec(opts.seed, c));
    specs.back().config.enable_metrics = opts.traced;
  }
  std::vector<Cell> cells(n_cells);

  BatchOutcome out;
  const auto batch = run_batch<core::TrialResult>(
      opts, tracer, 1, n_cells,
      [&](const BatchContext& ctx, Tally& t, std::uint64_t span, std::uint64_t id,
          std::size_t i) {
        Cell& cell = cells[i];
        std::size_t n = 0;
        std::vector<std::uint64_t> sent0;
        EblHooks hooks;
        hooks.before_run = [&](core::EblScenario& s) {
          n = s.node_count();
          cell.rx_pairs.assign(n * n, 0);
          for (std::size_t rx = 0; rx < n; ++rx) {
            s.beacon(rx).set_on_beacon([&cell, &s, n, rx](net::NodeId tx, const net::Packet&) {
              if (s.env().now() >= kBeaconMeasureStart) cell.rx_pairs[rx * n + tx] += 1;
            });
          }
        };
        hooks.run = [&](core::EblScenario& s) {
          s.run_until(kBeaconMeasureStart);
          for (std::size_t k = 0; k < n; ++k) sent0.push_back(s.beacon(k).sent());
          s.run();
        };
        hooks.after_run = [&](core::EblScenario& s) {
          // Every vehicle is parked from the measure start on: classify
          // each pair by its final geometry, as intersection_beacon does.
          std::vector<mobility::Vec2> pos(n);
          for (std::size_t k = 0; k < kBeaconPlatoon; ++k) {
            pos[k] = s.platoon1().vehicle(k)->position_at(kBeaconDuration);
            pos[kBeaconPlatoon + k] = s.platoon2().vehicle(k)->position_at(kBeaconDuration);
          }
          phy::IntersectionBlockageParams bp;
          bp.half_width_m = kBeaconHalfWidthM;
          bp.corner_loss_db = kBeaconCornerLossDb;
          const phy::IntersectionBlockage geometry{std::make_shared<phy::TwoRayGround>(), bp};
          for (std::size_t k = 0; k < n; ++k) cell.sent.push_back(s.beacon(k).sent() - sent0[k]);
          std::uint64_t near_rx = 0, near_exp = 0, far_rx = 0, far_exp = 0;
          for (std::size_t rx = 0; rx < n; ++rx) {
            for (std::size_t tx = 0; tx < n; ++tx) {
              if (rx == tx) continue;
              const double d = (pos[rx] - pos[tx]).length();
              const bool los = geometry.line_of_sight(pos[tx], pos[rx]);
              if (los && d < kBeaconNearM) {
                near_rx += cell.rx_pairs[rx * n + tx];
                near_exp += cell.sent[tx];
              } else if (!los && d >= kBeaconNearM) {
                far_rx += cell.rx_pairs[rx * n + tx];
                far_exp += cell.sent[tx];
              }
            }
          }
          cell.near_los_brr = ratio(static_cast<double>(near_rx), static_cast<double>(near_exp));
          cell.far_nlos_brr = ratio(static_cast<double>(far_rx), static_cast<double>(far_exp));
        };
        return run_ebl(ctx, specs[i], t, span, id, hooks);
      },
      [](std::ostream& os, const auto& trials) {
        core::report::write_sweep_json(os, "beacon_dense", trials);
      },
      out);

  Fnv f;
  for (std::size_t i = 0; i < n_cells; ++i) {
    mix_trial(f, batch.outs[i]);
    for (const std::uint64_t v : cells[i].rx_pairs) f.mix(v);
    for (const std::uint64_t v : cells[i].sent) f.mix(v);
    if (!batch.errors[i].empty()) continue;
    const std::string why = check_beacon(cells[i].near_los_brr, cells[i].far_nlos_brr);
    if (!why.empty()) out.failures.push_back(specs[i].name + ": " + why);
  }
  out.fingerprint = f.value();
  return out;
}

/// Distance covered before the first EBL packet arrives, as a fraction
/// of the headway (the paper's stopping-distance verdict, §III.E).
double headway_fraction(const core::TrialResult& r) {
  return core::StoppingAssessment{r.config.speed_mps, r.config.vehicle_gap_m,
                                  r.p1_initial_packet_delay_s}
      .fraction_of_headway();
}

std::string band(const char* what, double value, double lo, double hi) {
  if (value >= lo && value <= hi) return {};
  std::ostringstream os;
  os << what << " = " << value << " outside [" << lo << ", " << hi << "]";
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_sweep", "highway_grid", "traffic_idm",
                                              "beacon_dense"};
  return names;
}

std::size_t timed_batches(const std::string& workload, double seconds) {
  // Host seconds of one untraced batch on a 4-vCPU 2.0 GHz Xeon KVM guest
  // at the commit that defined the benchmark. They only size the run;
  // they are fixed so that a faster commit does not time more batches
  // (and so take a lower fastest batch) than a slower one.
  static const std::map<std::string, double> nominal_batch_s{
      {"paper_sweep", 1.0}, {"highway_grid", 2.0}, {"traffic_idm", 2.0}, {"beacon_dense", 1.1}};
  const auto it = nominal_batch_s.find(workload);
  if (it == nominal_batch_s.end())
    throw std::invalid_argument{"unknown workload '" + workload + "'"};
  return std::max<std::size_t>(3, static_cast<std::size_t>(seconds / it->second));
}

std::vector<core::TrialSpec> paper_specs(std::uint64_t seed) {
  std::vector<core::TrialSpec> specs;
  for (std::size_t k = 0; k < kPaperSeeds; ++k) {
    const std::uint64_t s = derive_seed(seed, k);
    int trial = 0;
    for (const core::ScenarioBuilder& base :
         {core::ScenarioBuilder::trial1(), core::ScenarioBuilder::trial2(),
          core::ScenarioBuilder::trial3()}) {
      ++trial;
      specs.push_back({core::ScenarioBuilder{base}.seed(s).build(),
                       "trial" + std::to_string(trial) + "/seed" + std::to_string(s)});
    }
  }
  return specs;
}

BatchOutcome run_paper_specs(const std::vector<core::TrialSpec>& specs, const RunOptions& opts,
                             Tracer& tracer) {
  if (specs.size() % 3 != 0)
    throw std::invalid_argument{"paper_sweep: specs must come in trial 1-2-3 triples"};
  std::vector<core::TrialSpec> run_specs = specs;
  for (core::TrialSpec& s : run_specs) s.config.enable_metrics = opts.traced;

  BatchOutcome out;
  const auto batch = run_batch<core::TrialResult>(
      opts, tracer, opts.jobs > 0 ? opts.jobs : kPaperJobs, run_specs.size(),
      [&](const BatchContext& ctx, Tally& t, std::uint64_t span, std::uint64_t id,
          std::size_t i) { return run_ebl(ctx, run_specs[i], t, span, id); },
      [](std::ostream& os, const auto& trials) {
        core::report::write_sweep_json(os, "paper_sweep", trials);
      },
      out);

  Fnv f;
  for (const core::TrialResult& r : batch.outs) mix_trial(f, r);
  out.fingerprint = f.value();
  std::vector<core::TrialResult> trial3s;
  for (std::size_t k = 0; k + 2 < batch.outs.size(); k += 3) {
    if (!batch.errors[k].empty() || !batch.errors[k + 1].empty() || !batch.errors[k + 2].empty())
      continue;  // already counted as thrown
    trial3s.push_back(batch.outs[k + 2]);
    const std::string why =
        check_paper_seed(batch.outs[k], batch.outs[k + 1], batch.outs[k + 2]);
    if (!why.empty())
      for (std::size_t j = k; j < k + 3; ++j)
        out.failures.push_back(run_specs[j].name + ": " + why);
  }
  if (const std::string why = check_paper_batch(trial3s); !why.empty())
    for (std::size_t k = 2; k < run_specs.size(); k += 3)
      out.failures.push_back(run_specs[k].name + ": " + why);
  return out;
}

BatchOutcome run_workload(const std::string& workload, const RunOptions& opts, Tracer& tracer) {
  if (workload == "paper_sweep") return run_paper_specs(paper_specs(opts.seed), opts, tracer);
  if (workload == "highway_grid") return run_highway(opts, tracer);
  if (workload == "traffic_idm") return run_traffic(opts, tracer);
  if (workload == "beacon_dense") return run_beacon(opts, tracer);
  throw std::invalid_argument{"unknown workload '" + workload + "'"};
}

core::TrialResult run_phased_trial(const core::TrialSpec& spec) {
  Tracer off{false};
  const BatchContext ctx{off, false, 0, Clock::now(), 0};
  Tally t;
  return run_ebl(ctx, spec, t, 0, 0);
}

std::uint64_t trial_fingerprint(const core::TrialResult& r) {
  Fnv f;
  mix_trial(f, r);
  return f.value();
}

std::string check_paper_seed(const core::TrialResult& t1, const core::TrialResult& t2,
                             const core::TrialResult& t3) {
  const double d1 = t1.p1_delay_summary().mean();
  const double d2 = t2.p1_delay_summary().mean();
  const double d3 = t3.p1_delay_summary().mean();
  const double x1 = t1.p1_throughput_ci.mean;
  const double x2 = t2.p1_throughput_ci.mean;
  const double x3 = t3.p1_throughput_ci.mean;
  if (d1 <= 0.0 || x1 <= 0.0) return "trial 1 delivered nothing";
  // Finding 1: delay is MAC-bound, not size-bound.
  if (auto e = band("finding 1: delay(t2)/delay(t1)", d2 / d1, 0.8, 1.25); !e.empty()) return e;
  // Finding 2: TDMA throughput scales with packet size.
  if (auto e = band("finding 2: tput(t2)/tput(t1)", x2 / x1, 0.4, 0.6); !e.empty()) return e;
  // Finding 3: 802.11 has far lower delay and far higher throughput.
  if (auto e = band("finding 3: delay(t3)/delay(t1)", d3 / d1, 0.0, 0.2); !e.empty()) return e;
  if (auto e = band("finding 3: tput(t3)/tput(t1)", x3 / x1, 2.0, 1e9); !e.empty()) return e;
  // Finding 6, TDMA: the first notice arrives after the headway is gone.
  return band("finding 6: TDMA headway fraction", headway_fraction(t1), 1.0, 1e9);
}

std::string check_paper_batch(const std::vector<core::TrialResult>& trial3s) {
  if (trial3s.empty()) return "no trial 3 completed";
  std::vector<double> f;
  for (const core::TrialResult& r : trial3s) f.push_back(headway_fraction(r));
  std::sort(f.begin(), f.end());
  const std::size_t n = f.size();
  const double median = n % 2 == 1 ? f[n / 2] : 0.5 * (f[n / 2 - 1] + f[n / 2]);
  return band("finding 6: median 802.11 headway fraction", median, 0.0, 0.5);
}

std::string check_highway(std::uint64_t phy_rx_ok, std::uint64_t rreq_forwarded) {
  if (phy_rx_ok == 0) return "no frame was decoded";
  if (rreq_forwarded == 0) return "no route request was flooded past its originator";
  return {};
}

std::string check_traffic(const core::TrafficRunResult& r) {
  if (r.shockwave_points < 2) return "no shockwave front was measured";
  if (r.shockwave_speed_mps >= 0.0) return "shockwave does not run upstream";
  if (r.equipped == 0 && r.warnings_originated > 0) return "an unequipped fleet sent warnings";
  // At partial penetration whether anyone equipped brakes hard (and so
  // warns) depends on the seed; a fully equipped fleet always warns.
  if (r.penetration >= 1.0 && r.warning_receptions == 0)
    return "fully equipped fleet received no warning";
  if (r.warnings_originated > 0 && r.warning_receptions == 0)
    return "warnings were sent but none received";
  return {};
}

std::string check_beacon(double near_los_brr, double far_nlos_brr) {
  if (near_los_brr > far_nlos_brr) return {};
  std::ostringstream os;
  os << "near-LOS BRR " << near_los_brr << " <= far-NLOS BRR " << far_nlos_brr;
  return os.str();
}

}  // namespace perfbench
