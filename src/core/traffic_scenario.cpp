#include "core/traffic_scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "queue/drop_tail.hpp"
#include "routing/static_routing.hpp"

namespace eblnet::core {

namespace {

constexpr net::Port kWarningPort = 7000;

/// Uniform [0, 1) from a hash — the penetration roll.
double hash_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

TrafficScenario::TrafficScenario(TrafficConfig config)
    : config_{std::move(config)}, env_{config_.seed} {
  if (!(config_.penetration >= 0.0 && config_.penetration <= 1.0))
    throw std::invalid_argument{"TrafficScenario: penetration must be in [0, 1]"};
  // Each check is written so that NaN fails it. Checked here rather than
  // when the incident fires or the first warning lands, minutes of
  // simulated time into the run, or at the first equipped spawn.
  if (!(config_.warn_range_m >= 0.0))
    throw std::invalid_argument{"TrafficScenario: warn_range_m must be >= 0"};
  if (config_.reaction < sim::Time::zero())
    throw std::invalid_argument{"TrafficScenario: reaction must be >= 0"};
  if (!(config_.incident_decel_mps2 > 0.0 &&
        config_.incident_decel_mps2 <= mobility::TrafficFlow::kMaxPhysicalDecel))
    throw std::invalid_argument{"TrafficScenario: incident_decel_mps2 must be in (0, 9] m/s^2"};
  if (!(config_.incident_pos_m < 0.0 || std::isfinite(config_.incident_pos_m)))
    throw std::invalid_argument{
        "TrafficScenario: incident_pos_m must be finite, or < 0 for mid-road"};
  if (!(std::isfinite(config_.congestion_speed_mps) && config_.congestion_speed_mps >= 0.0))
    throw std::invalid_argument{"TrafficScenario: congestion_speed_mps must be finite and >= 0"};
  mobility::validate_policy(config_.warned_policy, "TrafficScenario: warned_policy");

  propagation_ = std::make_shared<phy::TwoRayGround>();
  channel_ = std::make_unique<phy::Channel>(env_, propagation_, config_.channel);

  mobility::TrafficFlowParams fp = config_.flow;
  if (fp.end > config_.duration) fp.end = config_.duration;
  // The spawn stream gets its own domain tag; the equip roll gets
  // another, so membership never perturbs arrivals (and vice versa).
  flow_ = std::make_unique<mobility::TrafficFlow>(
      std::move(fp), sim::mix_seed(config_.seed, 0x5F10'77D0'0001ULL));
  equip_seed_ = sim::mix_seed(config_.seed, 0xE901'BAD6'0002ULL);

  // Declare the dynamics side's speed bound before anything moves: the
  // grid bakes its cull radius from it, so this must precede the first
  // transmit (see TrafficFlow's class comment).
  channel_->raise_speed_bound(flow_->max_speed_bound_mps());

  flow_->set_on_spawn([this](VehicleId v) { on_spawn(v); });
  flow_->set_on_despawn([this](VehicleId v) { on_despawn(v); });
  flow_->set_on_hard_brake([this](VehicleId v) { on_hard_brake(v); });

  if (!config_.incident_at.is_zero()) {
    env_.scheduler().schedule_at(config_.incident_at, [this] { trigger_incident(); });
  }
  flow_->start(env_.scheduler());
}

TrafficScenario::~TrafficScenario() = default;

bool TrafficScenario::equip_roll(VehicleId v) const {
  if (config_.penetration <= 0.0) return false;
  if (config_.penetration >= 1.0) return true;
  return hash_unit(sim::mix_seed(equip_seed_, v)) < config_.penetration;
}

void TrafficScenario::on_spawn(VehicleId v) {
  if (equipped_.size() <= v) equipped_.resize(v + 1);
  if (!equip_roll(v)) return;

  auto eq = std::make_unique<Equipped>();
  const auto id = static_cast<net::NodeId>(v);
  eq->node = std::make_unique<net::Node>(env_, id);

  eq->phy = std::make_unique<phy::WirelessPhy>(
      env_, id, *channel_, [this, v] { return flow_->position_of(v, env_.now()); }, config_.phy);

  auto ifq = std::make_unique<queue::PriQueue>(config_.ifq_capacity);
  eq->node->set_mac(
      std::make_unique<mac::Mac80211>(env_, id, *eq->phy, std::move(ifq), config_.mac80211));
  // Single-hop broadcast forwarding is all the flood needs; static
  // routing passes kBroadcastAddress straight down.
  eq->node->set_routing(
      std::make_unique<routing::StaticRouting>(env_, id, /*direct_by_default=*/true));

  eq->flood = std::make_unique<WarningFlood>(env_, *eq->node, kWarningPort, config_.flood);
  eq->flood->set_on_warning(
      [this, v](std::uint64_t warning_id, unsigned) { on_warning(v, warning_id); });

  // The reactor debounces: however many warnings arrive, the policy is
  // installed once per episode, `reaction` after the first one.
  eq->reactor = std::make_unique<EblBrakeReactor>(
      env_,
      [this, v] {
        ++reactions_;
        flow_->apply_policy(v, config_.warned_policy, env_.now() + config_.policy_hold);
      },
      config_.reaction);

  equipped_[v] = std::move(eq);
  ++equipped_count_;
}

void TrafficScenario::on_despawn(VehicleId v) {
  if (v >= equipped_.size() || !equipped_[v]) return;
  // Power the radio off (detaches from the channel and the grid) and
  // crash the node; objects stay alive so in-flight closures are safe.
  equipped_[v]->phy->set_down(true);
  equipped_[v]->node->set_up(false);
}

void TrafficScenario::on_hard_brake(VehicleId v) {
  if (v >= equipped_.size() || !equipped_[v] || !equipped_[v]->node->up()) return;
  // Origin vehicle id travels in the top word so receivers can check
  // the warning actually concerns traffic ahead of them.
  const std::uint64_t warning_id = (static_cast<std::uint64_t>(v) << 32) | warning_counter_++;
  equipped_[v]->flood->originate(warning_id);
  ++warnings_originated_;
}

void TrafficScenario::on_warning(VehicleId receiver, std::uint64_t warning_id) {
  ++warning_receptions_;
  const auto origin = static_cast<VehicleId>(warning_id >> 32);
  if (origin >= flow_->spawned_total() || !flow_->active(origin)) return;
  if (!flow_->active(receiver)) return;
  if (flow_->road_of(origin) != flow_->road_of(receiver)) return;
  const double ahead = flow_->longitudinal_pos(origin) - flow_->longitudinal_pos(receiver);
  if (ahead <= 0.0 || ahead > config_.warn_range_m) return;
  equipped_[receiver]->reactor->notify();
}

void TrafficScenario::trigger_incident() {
  const mobility::RoadSpec& road = flow_->params().roads.at(0);
  const double target = config_.incident_pos_m < 0.0 ? road.length_m / 2.0 : config_.incident_pos_m;
  VehicleId best = mobility::TrafficFlow::kNoVehicle;
  double best_dist = 1e300;
  for (VehicleId v = 0; v < flow_->spawned_total(); ++v) {
    if (!flow_->active(v) || flow_->road_of(v) != 0 || flow_->lane_of(v) != 0) continue;
    const double d = std::abs(flow_->longitudinal_pos(v) - target);
    if (d < best_dist) {
      best_dist = d;
      best = v;
    }
  }
  if (best == mobility::TrafficFlow::kNoVehicle) return;  // road empty: no incident
  incident_vehicle_ = best;
  incident_pos_ = flow_->longitudinal_pos(best);
  incident_time_ = env_.now();
  flow_->arm_slow_stats();
  flow_->force_stop(best, config_.incident_decel_mps2, env_.now() + config_.incident_hold);
}

void TrafficScenario::run() { run_until(config_.duration); }

void TrafficScenario::run_until(sim::Time t) { env_.scheduler().run_until(t); }

TrafficRunResult TrafficScenario::result(std::string name) {
  TrafficRunResult r;
  r.name = std::move(name);
  r.penetration = config_.penetration;
  r.vehicles_spawned = flow_->spawned_total();
  r.equipped = equipped_count_;
  r.warnings_originated = warnings_originated_;
  r.warning_receptions = warning_receptions_;
  r.reactions = reactions_;
  r.events_executed = env_.scheduler().executed_count();

  // Shockwave front: least-squares fit of first-slow position vs. time
  // for vehicles upstream of the incident on the incident road.
  double sum_t = 0.0, sum_p = 0.0, sum_tt = 0.0, sum_tp = 0.0;
  std::uint64_t n = 0;
  for (const auto& e : flow_->slow_events()) {
    if (e.road != 0) continue;
    if (incident_pos_ >= 0.0 && e.pos_m > incident_pos_) continue;
    if (e.vehicle == incident_vehicle_) continue;
    sum_t += e.t_s;
    sum_p += e.pos_m;
    sum_tt += e.t_s * e.t_s;
    sum_tp += e.t_s * e.pos_m;
    ++n;
  }
  r.shockwave_points = n;
  const double det = static_cast<double>(n) * sum_tt - sum_t * sum_t;
  if (n >= 2 && det != 0.0) r.shockwave_speed_mps = (n * sum_tp - sum_t * sum_p) / det;
  r.slowed_vehicles = flow_->slow_events().size();

  const double incident_s = incident_time_.to_seconds();
  for (const auto& s : flow_->speed_series()) {
    if (incident_vehicle_ != mobility::TrafficFlow::kNoVehicle && s.t_s >= incident_s &&
        s.active > 0 && s.mean_speed_mps < config_.congestion_speed_mps &&
        r.congestion_onset_s < 0.0) {
      r.congestion_onset_s = s.t_s;
    }
    if (s.active > 0) r.final_mean_speed_mps = s.mean_speed_mps;
  }
  return r;
}

}  // namespace eblnet::core
