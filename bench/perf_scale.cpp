// Large-N highway scaling harness: an N-vehicle platoon pair running EBL
// traffic over 802.11 (multi-hop TCP forwarding plus AODV route-discovery
// flooding), timed with two channel legs:
//
//  - flat: the O(N)-per-broadcast attach-order loop (the pre-grid
//    baseline; capped at N <= 1000 — beyond that it only proves O(N²)
//    is slow);
//  - batched: the spatial grid (DESIGN.md §3.5) with the SoA cull
//    pipeline — one range² sweep, then the exact filter on survivors
//    only (DESIGN.md §3.7).
//
// Each population is measured under both channel models, and under each
// both legs must execute the *same* event sequence, so the pair doubles
// as a determinism check — a divergence fails the run (exit 1, after the
// tables):
//
//  - two-ray ground (the paper's deterministic channel): speedups are the
//    pure candidate-walk cost.
//  - Nakagami-m fading (the de facto VANET channel) with keyed per-pair
//    fade streams (`nakagami_node_streams`): each fade depends on the
//    pair and the transmit time, not on evaluation order. The flat loop
//    draws a fade for every one of the N-1 pairs per broadcast; the
//    batched leg culls geometrically against the deterministic fade
//    envelope first, and its phase 1 never dereferences a phy at all.
//
// Reported per leg: wall time, events/s, pair evaluations per broadcast
// and ns per pair evaluation; the batched leg adds the phase-1 survivor
// ratio (survivors / lanes scanned). Batched evals/tx tracking
// neighbourhood density (not N) is the O(neighbours) evidence.
//
// In the full-stack scenario the candidate walk is a few percent of wall
// time (every broadcast fans out into MAC timers and per-receiver signal
// events that both legs pay identically), so the table mostly
// demonstrates parity plus the determinism check. micro_components'
// BM_ChannelBroadcast times the channel transmit path alone.
//
// Usage: perf_scale [--json out.json] [--quiet] [full]
//
//   The argument `full` adds N ∈ {1000, 10000, 50000, 100000} (the
//   acceptance run; `scripts/bench.sh --scale` passes it). Without it the
//   quick sizes {6, 50, 200} keep reproduce.sh's unoptimised sweep fast.
//
// Wall-clock numbers are only meaningful in a Release build; use
// scripts/bench.sh --scale, which configures -O2 -DNDEBUG before timing.

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/options.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"
#include "phy/wireless_phy.hpp"

using namespace eblnet;

namespace {

constexpr std::int64_t kDurationS = 16;
/// The flat leg exists to calibrate the baseline, not to heat the room:
/// past this population it is skipped and no speedup is reported.
constexpr std::size_t kFlatCap = 1000;

struct LegTiming {
  bool run{false};
  double wall_s{0.0};
  std::uint64_t events{0};
  std::uint64_t broadcasts{0};
  std::uint64_t pair_evaluations{0};
  std::uint64_t grid_rebuckets{0};
  std::uint64_t batch_lanes{0};
  std::uint64_t batch_culled{0};

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0.0;
  }
  double pair_evals_per_tx() const {
    return broadcasts > 0 ? static_cast<double>(pair_evaluations) / static_cast<double>(broadcasts)
                          : 0.0;
  }
  double ns_per_pair_eval() const {
    return pair_evaluations > 0 ? wall_s * 1e9 / static_cast<double>(pair_evaluations) : 0.0;
  }
  /// Phase-1 survivors per SoA lane scanned (batched leg only).
  double survivor_ratio() const {
    return batch_lanes > 0
               ? static_cast<double>(batch_lanes - batch_culled) / static_cast<double>(batch_lanes)
               : 0.0;
  }
};

struct ModelPoint {
  LegTiming flat;     ///< run == false past kFlatCap
  LegTiming batched;  ///< spatial grid with the two-phase SoA pipeline

  double batched_speedup() const {
    return batched.wall_s > 0.0 ? flat.wall_s / batched.wall_s : 0.0;
  }
};

struct ScalePoint {
  std::size_t n{0};
  ModelPoint two_ray;
  ModelPoint nakagami;
};

core::ScenarioConfig scale_config(std::size_t n_vehicles, const bench::Options& opts,
                                  phy::ChannelParams channel, core::PropagationType prop) {
  // The paper's calibrated 802.11 stack stretched along the highway: a
  // 100 m headway with carrier sense pulled in to the 250 m decode range
  // keeps each broadcast local (~4 receivers) regardless of N, and a
  // network-wide AODV search horizon lets EBL routes (and their RREQ
  // floods) span the whole platoon — so per-broadcast work is O(density)
  // once the channel stops scanning all N phys.
  return core::ScenarioBuilder::trial(1000, core::MacType::k80211)
      .platoon_size(n_vehicles / 2)
      .duration(sim::Time::seconds(kDurationS))
      .trace(false)
      .channel_params(channel)
      .nakagami_node_streams(prop == core::PropagationType::kNakagami)
      .mutate([&](core::ScenarioConfig& c) {
        c.propagation = prop;
        c.vehicle_gap_m = 100.0;
        c.phy.cs_threshold_w = c.phy.rx_threshold_w;
        c.aodv.net_diameter = 600;   // let routes span the whole highway
        c.aodv.ttl_start = 600;      // skip the expanding ring: flood wide
        c.ebl.cbr_rate_bps = 1.2e5;  // keep idle-link feeder ticks off the hot path
        opts.apply(c);
        c.enable_metrics = false;  // this harness times the hot path
      })
      .build();
}

LegTiming run_leg(const core::ScenarioConfig& cfg) {
  const auto scenario = std::make_unique<core::EblScenario>(cfg);
  const auto start = std::chrono::steady_clock::now();
  scenario->run();
  const auto stop = std::chrono::steady_clock::now();

  LegTiming t;
  t.run = true;
  t.wall_s = std::chrono::duration<double>(stop - start).count();
  t.events = scenario->env().scheduler().executed_count();
  t.broadcasts = scenario->channel().broadcasts();
  t.pair_evaluations = scenario->channel().pair_evaluations();
  t.grid_rebuckets = scenario->channel().grid_rebuckets();
  t.batch_lanes = scenario->channel().batch_lanes();
  t.batch_culled = scenario->channel().batch_culled();
  return t;
}

/// The flat loop's channel parameters: never use the grid.
phy::ChannelParams flat_channel() {
  phy::ChannelParams params;
  params.grid_min_phys = static_cast<std::size_t>(-1);
  return params;
}

ModelPoint run_model(std::size_t n, const bench::Options& opts, core::PropagationType prop) {
  ModelPoint p;
  if (n <= kFlatCap) p.flat = run_leg(scale_config(n, opts, flat_channel(), prop));
  p.batched = run_leg(scale_config(n, opts, phy::ChannelParams{}, prop));
  return p;
}

/// Deterministic propagation, or fades keyed by pair and transmit time,
/// ⇒ the index must not change the simulation, only its cost, so flat and
/// batched legs execute the same events. False, with a message on
/// stderr, when they diverge.
bool legs_agree(std::size_t n, const char* model, const ModelPoint& p) {
  if (!p.flat.run || p.flat.events == p.batched.events) return true;
  std::cerr << "perf_scale: flat and batched " << model
            << " legs executed different event counts at N = " << n << " (" << p.flat.events
            << " vs " << p.batched.events << ")\n";
  return false;
}

void print_columns(std::ostream& os) {
  os << std::left << std::setw(8) << "N" << std::setw(10) << "channel" << std::right
     << std::setw(10) << "flat (s)" << std::setw(10) << "batch (s)" << std::setw(9) << "f/b-x"
     << std::setw(7) << "surv" << std::setw(10) << "evals/tx" << std::setw(10) << "ns/pe" << '\n';
}

void print_row(std::ostream& os, std::size_t n, const char* model, const ModelPoint& p) {
  os << std::left << std::setw(8) << n << std::setw(10) << model << std::right << std::fixed
     << std::setprecision(3);
  if (p.flat.run) {
    os << std::setw(10) << p.flat.wall_s << std::setw(10) << p.batched.wall_s
       << std::setprecision(2) << std::setw(8) << p.batched_speedup() << 'x';
  } else {
    os << std::setw(10) << "-" << std::setw(10) << p.batched.wall_s << std::setw(9) << "-";
  }
  os << std::setprecision(3) << std::setw(7) << p.batched.survivor_ratio()
     << std::setprecision(1) << std::setw(10) << p.batched.pair_evals_per_tx() << std::setw(10)
     << p.batched.ns_per_pair_eval() << '\n';
}

void write_leg(core::JsonWriter& w, const LegTiming& t, bool batched) {
  w.begin_object();
  w.field("wall_s", t.wall_s);
  w.field("events", t.events);
  w.field("events_per_sec", t.events_per_sec());
  w.field("ns_per_event", t.ns_per_event());
  w.field("broadcasts", t.broadcasts);
  w.field("pair_evaluations", t.pair_evaluations);
  w.field("pair_evals_per_tx", t.pair_evals_per_tx());
  w.field("ns_per_pair_eval", t.ns_per_pair_eval());
  w.field("grid_rebuckets", t.grid_rebuckets);
  if (batched) {
    w.field("batch_lanes", t.batch_lanes);
    w.field("batch_culled", t.batch_culled);
    w.field("survivor_ratio", t.survivor_ratio());
  }
  w.end_object();
}

void write_model(core::JsonWriter& w, const ModelPoint& p) {
  w.begin_object();
  if (p.flat.run) {
    w.key("flat");
    write_leg(w, p.flat, false);
  }
  w.key("batched");
  write_leg(w, p.batched, true);
  if (p.flat.run) w.field("speedup_batched", p.batched_speedup());
  w.end_object();
}

void write_json(std::ostream& out, const std::vector<ScalePoint>& points) {
  core::JsonWriter w{out};
  w.begin_object();
  w.field("schema_version", std::uint64_t{core::report::kManifestSchemaVersion});
  w.field("kind", "eblnet.perf_scale");
  w.field("scenario", "highway platoons, 802.11 EBL, 100 m headway, 16 s");
  w.key("points");
  w.begin_array();
  for (const ScalePoint& p : points) {
    w.begin_object();
    w.field("n_vehicles", std::uint64_t{p.n});
    w.key("two_ray");
    write_model(w, p.two_ray);
    w.key("nakagami");
    write_model(w, p.nakagami);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);

  std::vector<std::size_t> sizes{6, 50, 200};
  if (opts.full) {
    sizes.push_back(1000);
    sizes.push_back(10000);
    sizes.push_back(50000);
    sizes.push_back(100000);
  }

  std::ostream& os = opts.out();
  core::report::print_header({os, 4, ""}, "perf_scale — flat vs batched-SoA grid channel");
  print_columns(os);

  bool agree = true;
  std::vector<ScalePoint> points;
  for (const std::size_t n : sizes) {
    ScalePoint p;
    p.n = n;
    p.two_ray = run_model(n, opts, core::PropagationType::kTwoRay);
    print_row(os, n, "two-ray", p.two_ray);
    agree = legs_agree(n, "two-ray", p.two_ray) && agree;
    p.nakagami = run_model(n, opts, core::PropagationType::kNakagami);
    print_row(os, n, "nakagami", p.nakagami);
    agree = legs_agree(n, "nakagami", p.nakagami) && agree;
    points.push_back(p);
  }

  bench::write_manifest(opts, [&](auto& f) { write_json(f, points); });
  if (opts.want_json()) os << "wrote " << opts.json_path << '\n';
  return agree ? 0 : 1;
}
