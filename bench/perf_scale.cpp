// Large-N highway scaling harness: an N-vehicle platoon pair running EBL
// traffic over 802.11 (multi-hop TCP forwarding plus AODV route-discovery
// flooding), timed with two channel legs:
//
//  - flat: the O(N)-per-broadcast attach-order loop (the pre-grid
//    baseline; capped at N <= 1000 — beyond that it only proves O(N²)
//    is slow);
//  - batched: the spatial grid (DESIGN.md §3.5) with the SoA cull
//    pipeline — branch-free range²/channel sweep, then the exact filter
//    on survivors only (DESIGN.md §3.7).
//
// Each population is measured under both channel models:
//
//  - two-ray ground (the paper's deterministic channel): both legs must
//    execute the *same* event sequence, so the pair doubles as a
//    determinism check — a divergence fails the run (exit 1, after the
//    tables); speedups are the pure candidate-walk cost.
//  - Nakagami-m fading (the de facto VANET channel): the flat loop draws
//    a gamma fade for every one of the N-1 pairs per broadcast, the
//    batched leg culls geometrically against the deterministic fade
//    envelope first, and its phase 1 never dereferences a phy at all.
//    Fading legs draw different Rng streams, so their event counts are
//    statistically equivalent, not identical.
//
// Reported per leg: wall time, events/s, pair evaluations per broadcast
// and ns per pair evaluation; the batched leg adds the phase-1 survivor
// ratio (survivors / lanes scanned). Batched evals/tx tracking
// neighbourhood density (not N) is the O(neighbours) evidence.
//
// In the full-stack scenario the candidate walk is a few percent of wall
// time (every broadcast fans out into MAC timers and per-receiver signal
// events that both legs pay identically), so the end-to-end table mostly
// demonstrates parity plus the determinism check. The second table — the
// *broadcast drive* — times the channel transmit path in isolation: N
// stationary radios on a square urban grid (100 m pitch), every 16th a
// roadside receiver whose carrier sense is 20 dB more sensitive (a mixed
// fleet). The sensitive listeners stretch the grid cell to their ~1.7 km
// envelope, so the 3x3 neighbourhood holds ~29x the receiver count in
// 2-D, and the batched leg rejects the out-of-radius lanes in the
// branch-free phase-1 sweep — the heterogeneous-radii case the per-lane
// cull_r2 exists for.
//
// Usage: perf_scale [--json out.json] [--quiet] [full]
//
//   The argument `full` adds N ∈ {1000, 10000, 50000, 100000} to both
//   tables (the acceptance run; `scripts/bench.sh --scale` passes it).
//   Without it the quick sizes ({6, 50, 200} end-to-end, 1000 for the
//   drive) keep reproduce.sh's unoptimised sweep fast.
//
// Wall-clock numbers are only meaningful in a Release build; use
// scripts/bench.sh --scale, which configures -O2 -DNDEBUG before timing.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include <memory>

#include "bench/options.hpp"
#include "core/json_writer.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"
#include "net/env.hpp"
#include "net/packet.hpp"
#include "phy/propagation.hpp"
#include "phy/wireless_phy.hpp"
#include "sim/rng.hpp"

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

/// Deterministic propagation ⇒ the index must not change the simulation,
/// only its cost, so two-ray flat and batched legs execute the same
/// events. (Fading legs draw different Rng streams by design.) False,
/// with a message on stderr, when they diverge.
bool legs_agree(const char* table, std::size_t n, const ModelPoint& two_ray) {
  if (!two_ray.flat.run || two_ray.flat.events == two_ray.batched.events) return true;
  std::cerr << "perf_scale: " << table
            << ": flat and batched two-ray legs executed different event counts at N = " << n
            << " (" << two_ray.flat.events << " vs " << two_ray.batched.events << ")\n";
  return false;
}

// ---- broadcast drive: the channel transmit path in isolation ----------

constexpr double kDriveSpacingM = 100.0;  ///< urban-grid intersection pitch
constexpr std::size_t kDriveRoadsideEvery = 16;
/// Roadside receivers listen 20 dB below the vehicle carrier sense —
/// their ~1.7 km envelope sets the grid cell for everyone, so a vehicle
/// broadcast must consider every radio within ±2.7 km while only the
/// ~550 m disc actually hears it. In two dimensions that is a ~29x
/// candidate-to-receiver ratio: the regime the per-lane cull_r2 targets.
constexpr double kDriveRoadsideCsFactor = 1e-2;

struct DrivePoint {
  std::size_t n{0};
  std::uint64_t broadcasts{0};
  ModelPoint two_ray;
  ModelPoint nakagami;
};

LegTiming run_drive_leg(std::size_t n, std::uint64_t k_broadcasts, core::PropagationType prop,
                        phy::ChannelParams params) {
  net::Env env{1};
  sim::Rng fade_rng{20260808};
  std::shared_ptr<phy::PropagationModel> model;
  if (prop == core::PropagationType::kTwoRay) {
    model = std::make_shared<phy::TwoRayGround>();
  } else {
    model = std::make_shared<phy::NakagamiFading>(3.0, fade_rng);
  }
  phy::Channel channel{env, model, params};

  // Square urban grid, one radio per intersection.
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<std::unique_ptr<phy::WirelessPhy>> phys;
  phys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const mobility::Vec2 pos{kDriveSpacingM * static_cast<double>(i % side),
                             kDriveSpacingM * static_cast<double>(i / side)};
    phy::PhyParams pp;
    if (i % kDriveRoadsideEvery == 0) pp.cs_threshold_w *= kDriveRoadsideCsFactor;
    phys.push_back(std::make_unique<phy::WirelessPhy>(
        env, static_cast<net::NodeId>(i), channel, [pos] { return pos; }, pp));
  }

  net::Packet p;
  p.uid = 1;
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = 1000;

  // One untimed broadcast builds the grid and sizes every scratch vector.
  phys[n / 2]->transmit(p, sim::Time::microseconds(std::int64_t{100}));
  env.scheduler().run();

  const std::uint64_t ev0 = env.scheduler().executed_count();
  const std::uint64_t tx0 = channel.broadcasts();
  const std::uint64_t pe0 = channel.pair_evaluations();
  const std::uint64_t bl0 = channel.batch_lanes();
  const std::uint64_t bc0 = channel.batch_culled();

  // Stride coprime with every drive size so successive senders are spread
  // along the strip instead of reheating one neighbourhood.
  std::size_t sender = 0;
  const std::size_t stride = n / 2 + 1;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < k_broadcasts; ++k) {
    sender = (sender + stride) % n;
    phys[sender]->transmit(p, sim::Time::microseconds(std::int64_t{100}));
    env.scheduler().run();
  }
  const auto stop = std::chrono::steady_clock::now();

  LegTiming t;
  t.run = true;
  t.wall_s = std::chrono::duration<double>(stop - start).count();
  t.events = env.scheduler().executed_count() - ev0;
  t.broadcasts = channel.broadcasts() - tx0;
  t.pair_evaluations = channel.pair_evaluations() - pe0;
  t.batch_lanes = channel.batch_lanes() - bl0;
  t.batch_culled = channel.batch_culled() - bc0;
  return t;
}

ModelPoint run_drive_model(std::size_t n, std::uint64_t k_broadcasts, core::PropagationType prop) {
  ModelPoint p;
  if (n <= kFlatCap) p.flat = run_drive_leg(n, k_broadcasts, prop, flat_channel());
  phy::ChannelParams grid;
  grid.grid_min_phys = 0;
  p.batched = run_drive_leg(n, k_broadcasts, prop, grid);
  return p;
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

void write_json(std::ostream& out, const std::vector<ScalePoint>& points,
                const std::vector<DrivePoint>& drive) {
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
  w.field("drive_scenario",
          "channel transmit path only: urban grid at 100 m pitch, "
          "1/16 roadside receivers at -20 dB CS");
  w.key("drive_points");
  w.begin_array();
  for (const DrivePoint& p : drive) {
    w.begin_object();
    w.field("n_vehicles", std::uint64_t{p.n});
    w.field("broadcasts", p.broadcasts);
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
    agree = legs_agree("end-to-end", n, p.two_ray) && agree;
    p.nakagami = run_model(n, opts, core::PropagationType::kNakagami);
    print_row(os, n, "nakagami", p.nakagami);
    points.push_back(p);
  }

  std::vector<std::size_t> drive_sizes{1000};
  if (opts.full) {
    drive_sizes.push_back(10000);
    drive_sizes.push_back(50000);
    drive_sizes.push_back(100000);
  }
  const std::uint64_t k_broadcasts = opts.full ? 20000 : 1000;

  os << '\n';
  core::report::print_header({os, 4, ""},
                             "broadcast drive — channel transmit path, mixed fleet "
                             "(urban grid, 100 m pitch, 1/16 roadside @ -20 dB CS)");
  print_columns(os);

  std::vector<DrivePoint> drive;
  for (const std::size_t n : drive_sizes) {
    DrivePoint p;
    p.n = n;
    p.broadcasts = k_broadcasts;
    p.two_ray = run_drive_model(n, k_broadcasts, core::PropagationType::kTwoRay);
    print_row(os, n, "two-ray", p.two_ray);
    agree = legs_agree("drive", n, p.two_ray) && agree;
    p.nakagami = run_drive_model(n, k_broadcasts, core::PropagationType::kNakagami);
    print_row(os, n, "nakagami", p.nakagami);
    drive.push_back(p);
  }

  bench::write_manifest(opts, [&](auto& f) { write_json(f, points, drive); });
  if (opts.want_json()) os << "wrote " << opts.json_path << '\n';
  return agree ? 0 : 1;
}
