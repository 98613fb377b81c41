#include "core/sharded_scenario.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/timer.hpp"
#include "transport/tcp_sink.hpp"

namespace eblnet::core {
namespace {

/// Axis-aligned hull of everywhere a shard's owned radios can ever be.
/// Soundness only requires containment — a generous pad just forwards a
/// few extra seam messages, which the destination's exact filter drops.
struct Aabb {
  double min_x{0.0}, min_y{0.0}, max_x{0.0}, max_y{0.0};
  bool valid{false};

  void cover(double x0, double y0, double x1, double y1) {
    const double lo_x = std::min(x0, x1), hi_x = std::max(x0, x1);
    const double lo_y = std::min(y0, y1), hi_y = std::max(y0, y1);
    if (!valid) {
      min_x = lo_x;
      min_y = lo_y;
      max_x = hi_x;
      max_y = hi_y;
      valid = true;
      return;
    }
    min_x = std::min(min_x, lo_x);
    min_y = std::min(min_y, lo_y);
    max_x = std::max(max_x, hi_x);
    max_y = std::max(max_y, hi_y);
  }

  void pad(double m) {
    if (!valid) return;
    min_x -= m;
    min_y -= m;
    max_x += m;
    max_y += m;
  }

  /// Does the circle (centre, radius) touch the box?
  bool intersects_circle(mobility::Vec2 c, double r) const {
    if (!valid) return false;
    const double cx = std::clamp(c.x, min_x, max_x);
    const double cy = std::clamp(c.y, min_y, max_y);
    const double dx = c.x - cx, dy = c.y - cy;
    return dx * dx + dy * dy <= r * r;
  }
};

/// Owner shard of item `i` of `total`: contiguous equal ranges over the
/// flat vehicle order (intersection) or flat lane order (traffic), which
/// are contiguous in space for both scenario families.
std::size_t shard_of(std::size_t i, std::size_t total, std::size_t k) {
  return i * k / total;
}

/// Cross-seam forwarding radius: the farthest distance at which a
/// transmit at the configured power can still be sensed (and therefore
/// interfere), plus a containment margin.
double seam_reach_m(const phy::PropagationModel& prop, const phy::PhyParams& p) {
  return prop.range_for_threshold(p.tx_power_w, p.cs_threshold_w) + 1.0;
}

/// K-way merge of per-shard trace stores into one global, time-ordered
/// store. Each shard's store is non-decreasing in time (records are
/// appended in execution order), so a front-runner merge suffices; ties
/// break by shard index, the deterministic convention DESIGN.md §3.9
/// fixes for all cross-shard merges.
trace::TraceStore merge_traces(const std::vector<const trace::TraceStore*>& stores) {
  trace::TraceStore out;
  std::vector<std::size_t> idx(stores.size(), 0);
  for (;;) {
    std::size_t best = stores.size();
    sim::Time best_t{};
    for (std::size_t s = 0; s < stores.size(); ++s) {
      if (idx[s] >= stores[s]->size()) continue;
      const sim::Time t = (*stores[s])[idx[s]].t;
      if (best == stores.size() || t < best_t) {
        best = s;
        best_t = t;
      }
    }
    if (best == stores.size()) break;
    out.push_back((*stores[best])[idx[best]]);
    ++idx[best];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seam replay and the conservative engine (both families)
// ---------------------------------------------------------------------------

/// What sharding adds once a family's K worlds are built: the
/// conservative engine over their schedulers, and seam replay between
/// their channels. Every local transmit is posted to each other shard
/// whose owned-region hull its sensing reach touches, and replayed there
/// at its exact transmit time (Channel::inject_remote), where it goes
/// through the identical candidate query and per-receiver filter against
/// that shard's owned radios.
class ShardLinks {
 public:
  ShardLinks(const std::vector<net::Env*>& envs, std::vector<phy::Channel*> channels,
             std::vector<Aabb> boxes, const phy::PhyParams& phy, sim::Time horizon);

  void run() { engine_.run(); }
  void post(std::size_t src, std::size_t dst, sim::Time at, std::function<void()> fn) {
    engine_.post(src, dst, at, std::move(fn));
  }

  /// Fill `diag` (when non-null); `events` is the scheduler total over
  /// all shards.
  void diagnose(ShardRunDiagnostics* diag, std::uint64_t events) const;

 private:
  static std::vector<sim::Scheduler*> schedulers(const std::vector<net::Env*>& envs) {
    std::vector<sim::Scheduler*> out;
    for (net::Env* env : envs) out.push_back(&env->scheduler());
    return out;
  }

  std::vector<phy::Channel*> channels_;
  std::vector<Aabb> boxes_;  ///< per-shard owned-region hulls
  double reach_m_;
  sim::ShardEngine engine_;
};

ShardLinks::ShardLinks(const std::vector<net::Env*>& envs, std::vector<phy::Channel*> channels,
                       std::vector<Aabb> boxes, const phy::PhyParams& phy, sim::Time horizon)
    : channels_{std::move(channels)},
      boxes_{std::move(boxes)},
      reach_m_{seam_reach_m(channels_[0]->propagation(), phy)},
      engine_{schedulers(envs), horizon} {
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    channels_[s]->set_seam_hook([this, s, env = envs[s]](const phy::WirelessPhy& sender,
                                                        const net::Packet& p, mobility::Vec2 from,
                                                        sim::Time duration) {
      const sim::Time at = env->now();
      for (std::size_t d = 0; d < channels_.size(); ++d) {
        if (d == s || !boxes_[d].intersects_circle(from, reach_m_)) continue;
        engine_.post(s, d, at,
                     [ch = channels_[d], pkt = p, from, pw = sender.params().tx_power_w,
                      cid = sender.channel_id(), duration, src = sender.owner()]() mutable {
                       ch->inject_remote(std::move(pkt), from, pw, cid, duration, src);
                     });
      }
    });
  }
}

void ShardLinks::diagnose(ShardRunDiagnostics* diag, std::uint64_t events) const {
  if (diag == nullptr) return;
  *diag = ShardRunDiagnostics{};
  diag->shards = channels_.size();
  diag->lookahead_us = engine_.lift().to_seconds() * 1e6;
  diag->seam_messages = engine_.seam_messages();
  diag->total_events = events;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    diag->per_shard.push_back(engine_.stats(s));
    diag->stall_seconds_total += engine_.stats(s).stall_seconds;
    diag->broadcasts += channels_[s]->broadcasts();
    diag->remote_injects += channels_[s]->remote_injects();
  }
}

// ---------------------------------------------------------------------------
// Sharded intersection scenario
// ---------------------------------------------------------------------------

/// The intersection scenario split over K conservative shards, each
/// built with EblScenario's assembly functions (core/scenario.hpp).
/// Mobility (scripted platoons) is replicated in every shard — vehicle
/// state is closed-form, so replicas are bit-identical and state-change
/// events fire at identical simulation times everywhere. Radio stacks
/// exist only in their owner shard, and each EBL stream is split: the
/// sender half lives with the lead's owner, the sink with the
/// follower's.
class ShardedEblScenario {
 public:
  ShardedEblScenario(ScenarioConfig config, std::size_t shards);

  void run() { links_->run(); }

  TrialResult extract(std::string name, ShardRunDiagnostics* diag);

 private:
  using Senders = std::vector<std::unique_ptr<EblSender>>;
  using Sinks = std::vector<std::unique_ptr<transport::TcpSink>>;

  /// One shard's world. Declaration order mirrors EblScenario for the
  /// same teardown-safety reasons (channel before phys, nodes before the
  /// port-bound transport endpoints, timers after env).
  struct Shard {
    explicit Shard(std::uint64_t seed) : env{seed} {}

    trace::TraceManager trace;
    net::Env env;
    std::unique_ptr<phy::Channel> channel;
    IntersectionPlatoons platoons;
    std::vector<std::unique_ptr<phy::WirelessPhy>> phys;
    std::vector<std::unique_ptr<net::Node>> nodes;
    std::vector<net::Node*> node_by_id;  ///< global id -> owned node (or null)
    Senders senders1, senders2;          ///< lead-owner shard only
    Sinks sinks1, sinks2;

    /// Raw cumulative sink bytes per platoon, sampled on the serial
    /// monitor's exact schedule. Kept as integers so the merged series
    /// (sum, then the monitor's delta arithmetic) is bit-identical to
    /// the serial monitor sampling the global sum.
    std::vector<sim::Time> sample_times;
    std::vector<std::uint64_t> bytes1, bytes2;
    std::unique_ptr<sim::Timer> sampler;
  };

  bool owned(std::size_t s, std::size_t gid) const {
    return shard_of(gid, total_, shards_.size()) == s;
  }
  void build_shard(std::size_t s);
  void build_ebl(std::size_t s, std::size_t lead, net::Port base_port, Senders& senders,
                 Sinks& sinks);
  std::vector<Aabb> compute_boxes() const;

  ScenarioConfig config_;
  std::size_t total_{0};  ///< 2 * platoon_size
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ShardLinks> links_;
};

ShardedEblScenario::ShardedEblScenario(ScenarioConfig config, std::size_t shards)
    : config_{std::move(config)} {
  if (shards < 2 || shards > sim::ShardEngine::kMaxShards)
    throw std::invalid_argument{"ShardedEblScenario: shards must be in [2, 64]"};
  if (config_.platoon_size < 2)
    throw std::invalid_argument{"ShardedEblScenario: platoons need at least two vehicles"};
  if (!config_.faults.empty())
    throw std::invalid_argument{
        "ShardedEblScenario: fault plans are not supported with shards > 1"};
  if (config_.reactive.enabled)
    throw std::invalid_argument{
        "ShardedEblScenario: reactive braking is not supported with shards > 1"};
  if (config_.propagation == PropagationType::kNakagami && !config_.nakagami_node_streams)
    throw std::invalid_argument{
        "ShardedEblScenario: Nakagami fading shards only with keyed pair streams "
        "(nakagami_node_streams)"};
  if (config_.beacon.enabled)
    throw std::invalid_argument{
        "ShardedEblScenario: beaconing is not supported with shards > 1"};
  config_.node_rng_streams = true;  // interleaving-independent per-node draws
  total_ = 2 * config_.platoon_size;

  // All Shard slots exist before any is built: ownership tests and the
  // uid stride read shards_.size(), which must already be final.
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>(config_.seed));
  for (std::size_t s = 0; s < shards; ++s) build_shard(s);

  std::vector<net::Env*> envs;
  std::vector<phy::Channel*> channels;
  for (auto& sh : shards_) {
    envs.push_back(&sh->env);
    channels.push_back(sh->channel.get());
  }
  links_ = std::make_unique<ShardLinks>(envs, std::move(channels), compute_boxes(), config_.phy,
                                        config_.duration);
}

std::vector<Aabb> ShardedEblScenario::compute_boxes() const {
  // Each vehicle's scripted motion is monotone along its platoon's
  // heading (platoon 1 drives north to the origin, platoon 2 departs
  // east), so covering where it starts and ends covers the whole path.
  const PlatoonPath paths[2] = {platoon1_path(config_), platoon2_path(config_)};
  std::vector<Aabb> boxes(shards_.size());
  for (std::size_t i = 0; i < total_; ++i) {
    const PlatoonPath& path = paths[i / config_.platoon_size];
    const mobility::Vec2 start = shards_[0]->platoons.vehicle(i)->position_at(sim::Time::zero());
    const mobility::Vec2 end = start + path.heading * path.travel_m;
    boxes[shard_of(i, total_, shards_.size())].cover(start.x, start.y, end.x, end.y);
  }
  for (auto& b : boxes) b.pad(5.0);
  return boxes;
}

void ShardedEblScenario::build_shard(std::size_t s) {
  Shard& sh = *shards_[s];
  if (config_.enable_trace) sh.env.set_trace_sink(&sh.trace);
  sh.env.enable_node_rng_streams();
  sh.env.set_uid_stride(shards_.size(), s);
  sh.env.metrics().set_enabled(config_.enable_metrics);
  // Nakagami is admitted only with keyed per-pair fades, a pure function
  // of (seed, tx, rx, transmit time): every shard reproduces exactly the
  // fades the serial oracle draws, and the shard-local Rng is never
  // consumed.
  sh.channel = std::make_unique<phy::Channel>(sh.env, make_propagation(config_, sh.env.rng()),
                                              config_.channel);
  sh.platoons = build_platoons(sh.env.scheduler(), config_);

  sh.node_by_id.assign(total_, nullptr);
  for (std::size_t i = 0; i < total_; ++i) {
    if (!owned(s, i)) continue;
    NodeStack stack = build_node_stack(sh.env, *sh.channel, config_,
                                       static_cast<net::NodeId>(i), sh.platoons.vehicle(i));
    sh.node_by_id[i] = stack.node.get();
    sh.phys.push_back(std::move(stack.phy));
    sh.nodes.push_back(std::move(stack.node));
  }

  build_ebl(s, /*lead=*/0, kEblBasePort1, sh.senders1, sh.sinks1);
  build_ebl(s, /*lead=*/config_.platoon_size, kEblBasePort2, sh.senders2, sh.sinks2);

  // --- throughput sampling on the serial monitor's schedule ---
  sh.sampler = std::make_unique<sim::Timer>(sh.env.scheduler(), [this, &sh] {
    std::uint64_t b1 = 0, b2 = 0;
    for (const auto& k : sh.sinks1) b1 += k->bytes();
    for (const auto& k : sh.sinks2) b2 += k->bytes();
    sh.sample_times.push_back(sh.sampler->expires_at());
    sh.bytes1.push_back(b1);
    sh.bytes2.push_back(b2);
    sh.sampler->schedule_in(config_.throughput_sample_interval);
  });
  sh.sampler->schedule_in(config_.throughput_sample_interval);
}

void ShardedEblScenario::build_ebl(std::size_t s, std::size_t lead, net::Port base_port,
                                   Senders& senders, Sinks& sinks) {
  Shard& sh = *shards_[s];
  const EblConfig ebl = ebl_config(config_);
  for (std::size_t i = 1; i < config_.platoon_size; ++i) {
    const std::size_t follower = lead + i;
    if (owned(s, lead)) {
      senders.push_back(std::make_unique<EblSender>(
          sh.env, *sh.node_by_id[lead], ebl_lead_port(base_port, i),
          static_cast<net::NodeId>(follower), ebl_sink_port(base_port), ebl));
    }
    if (owned(s, follower)) {
      sinks.push_back(std::make_unique<transport::TcpSink>(*sh.node_by_id[follower],
                                                           ebl_sink_port(base_port), ebl.sink));
    }
  }
  // Only the lead's owner observes its (replicated, identically-timed)
  // drive state.
  if (owned(s, lead)) follow_lead_state(sh.env, *sh.platoons.vehicle(lead), senders);
}

TrialResult ShardedEblScenario::extract(std::string name, ShardRunDiagnostics* diag) {
  // Throughput: sum the raw per-shard byte counts (exact integers), then
  // apply the monitor's delta arithmetic once — bit-identical to the
  // serial monitor sampling the global sink sum.
  stats::TimeSeries tput1, tput2;
  std::size_t samples = shards_[0]->sample_times.size();
  for (const auto& sh : shards_) samples = std::min(samples, sh->sample_times.size());
  const double denom = config_.throughput_sample_interval.to_seconds() * 1e6;
  std::uint64_t prev1 = 0, prev2 = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    std::uint64_t b1 = 0, b2 = 0;
    for (const auto& sh : shards_) {
      b1 += sh->bytes1[i];
      b2 += sh->bytes2[i];
    }
    tput1.add(shards_[0]->sample_times[i], static_cast<double>(b1 - prev1) * 8.0 / denom);
    tput2.add(shards_[0]->sample_times[i], static_cast<double>(b2 - prev2) * 8.0 / denom);
    prev1 = b1;
    prev2 = b2;
  }

  TrialMetrics metrics;
  if (config_.enable_metrics) {
    for (auto& sh : shards_) {
      for (const auto& node : sh->nodes) fold_ifq_residual(sh->env.metrics(), *node);
      metrics.merge(sh->env.metrics().snapshot());
    }
  }

  std::uint64_t events = 0;
  std::vector<const trace::TraceStore*> stores;
  for (auto& sh : shards_) {
    events += sh->env.scheduler().executed_count();
    stores.push_back(&sh->trace.records());
  }
  const trace::TraceStore merged = merge_traces(stores);
  links_->diagnose(diag, events);

  return extract_trial_result(config_, std::move(name), merged, std::move(tput1),
                              std::move(tput2), std::move(metrics), events, nullptr);
}

// ---------------------------------------------------------------------------
// Sharded closed-loop traffic scenario
// ---------------------------------------------------------------------------

/// TrafficScenario replicated over K shards. The IDM flow is fully
/// replicated (synchronous fixed-tick integration is deterministic, so
/// replicas stay bit-identical as long as every state mutation is
/// mirrored); radio stacks are partitioned by (road, lane) at spawn. The
/// only cross-shard state mutations are warned-policy installations,
/// mirrored through the seam mailboxes at their exact apply time.
class ShardedTrafficScenario {
 public:
  ShardedTrafficScenario(TrafficConfig config, std::size_t shards);

  void run() { links_->run(); }

  TrafficRunResult result(std::string name, ShardRunDiagnostics* diag);

 private:
  using VehicleId = TrafficScenario::VehicleId;

  std::size_t owner_of(const mobility::TrafficFlow& flow, VehicleId v) const {
    return shard_of(lane_base_[flow.road_of(v)] + flow.lane_of(v), total_lanes_,
                    replicas_.size());
  }

  std::vector<std::size_t> lane_base_;  ///< flat lane index base per road
  std::size_t total_lanes_{0};
  std::vector<std::unique_ptr<TrafficScenario>> replicas_;
  std::unique_ptr<ShardLinks> links_;
};

ShardedTrafficScenario::ShardedTrafficScenario(TrafficConfig config, std::size_t shards) {
  if (shards < 2 || shards > sim::ShardEngine::kMaxShards)
    throw std::invalid_argument{"ShardedTrafficScenario: shards must be in [2, 64]"};
  config.node_rng_streams = true;

  // Flat lane indexing and per-shard spatial hulls from the road network.
  for (const auto& road : config.flow.roads) {
    lane_base_.push_back(total_lanes_);
    total_lanes_ += static_cast<std::size_t>(road.lanes);
  }
  if (total_lanes_ == 0)
    throw std::invalid_argument{"ShardedTrafficScenario: road network has no lanes"};

  std::vector<Aabb> boxes(shards);
  for (std::size_t r = 0; r < config.flow.roads.size(); ++r) {
    const auto& road = config.flow.roads[r];
    const mobility::Vec2 end{road.origin.x + road.direction.x * road.length_m,
                             road.origin.y + road.direction.y * road.length_m};
    for (int lane = 0; lane < road.lanes; ++lane) {
      const std::size_t flat = lane_base_[r] + static_cast<std::size_t>(lane);
      boxes[shard_of(flat, total_lanes_, shards)].cover(road.origin.x, road.origin.y, end.x,
                                                       end.y);
    }
  }
  // Lateral lane offsets plus vehicle extent: pad by the full carriageway.
  double max_lateral = 5.0;
  for (const auto& road : config.flow.roads)
    max_lateral = std::max(max_lateral, road.lanes * road.lane_width_m + 5.0);
  for (auto& b : boxes) b.pad(max_lateral);

  replicas_.reserve(shards);
  std::vector<net::Env*> envs;
  std::vector<phy::Channel*> channels;
  for (std::size_t s = 0; s < shards; ++s) {
    replicas_.push_back(std::make_unique<TrafficScenario>(
        config, [this, s](VehicleId v) { return owner_of(replicas_[s]->flow(), v) == s; },
        [this, s](VehicleId v, sim::Time until) {
          // Mirror the (only) cross-shard state mutation into every
          // replica at its exact apply time, in deterministic seam order.
          for (std::size_t d = 0; d < replicas_.size(); ++d) {
            if (d == s) continue;
            links_->post(s, d, replicas_[s]->env().now(),
                         [this, d, v, until] { replicas_[d]->apply_warned_policy(v, until); });
          }
        }));
    TrafficScenario& replica = *replicas_.back();
    replica.env().set_uid_stride(shards, s);
    envs.push_back(&replica.env());
    channels.push_back(&replica.channel());
  }
  links_ = std::make_unique<ShardLinks>(envs, std::move(channels), std::move(boxes), config.phy,
                                        config.duration);
}

TrafficRunResult ShardedTrafficScenario::result(std::string name, ShardRunDiagnostics* diag) {
  // Flow-derived statistics come from shard 0's replica (all replicas are
  // identical); the tallies sum over shards.
  TrafficRunResult r = replicas_[0]->result(std::move(name));
  for (std::size_t s = 1; s < replicas_.size(); ++s) replicas_[s]->add_tallies(r);
  links_->diagnose(diag, r.events_executed);
  return r;
}

}  // namespace

TrialResult run_sharded_trial(const ScenarioConfig& config, std::size_t shards, std::string name,
                              ShardRunDiagnostics* diag) {
  if (shards <= 1) {
    if (diag != nullptr) *diag = ShardRunDiagnostics{};
    return run_trial(config, std::move(name));
  }
  ShardedEblScenario scenario{config, shards};
  scenario.run();
  return scenario.extract(std::move(name), diag);
}

TrafficRunResult run_sharded_traffic(const TrafficConfig& config, std::size_t shards,
                                     std::string name, ShardRunDiagnostics* diag) {
  if (shards <= 1) {
    if (diag != nullptr) *diag = ShardRunDiagnostics{};
    TrafficScenario scenario{config};
    scenario.run();
    return scenario.result(std::move(name));
  }
  ShardedTrafficScenario scenario{config, shards};
  scenario.run();
  return scenario.result(std::move(name), diag);
}

}  // namespace eblnet::core
