#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "app/beacon.hpp"
#include "phy/intersection_blockage.hpp"
#include "queue/drop_tail.hpp"
#include "routing/static_routing.hpp"

namespace eblnet::core {

const char* to_string(MacType m) noexcept {
  switch (m) {
    case MacType::kTdma: return "TDMA";
    case MacType::k80211: return "802.11";
    case MacType::kEdca: return "EDCA";
  }
  return "?";
}

const char* to_string(RoutingType r) noexcept {
  switch (r) {
    case RoutingType::kAodv: return "AODV";
    case RoutingType::kDsdv: return "DSDV";
    case RoutingType::kStatic: return "static";
  }
  return "?";
}

const char* to_string(PropagationType p) noexcept {
  switch (p) {
    case PropagationType::kTwoRay: return "two-ray";
    case PropagationType::kNakagami: return "nakagami";
  }
  return "?";
}

routing::Aodv& EblScenario::aodv(std::size_t i) {
  if (config_.routing != RoutingType::kAodv)
    throw std::logic_error{"EblScenario: scenario is not running AODV"};
  return *aodvs_.at(i);
}

EblBrakeReactor& EblScenario::reactor(std::size_t i) {
  if (!config_.reactive.enabled)
    throw std::logic_error{"EblScenario: reactive braking is not enabled"};
  return *reactors_.at(i);
}

CollisionMonitor& EblScenario::collisions() {
  if (!config_.reactive.enabled)
    throw std::logic_error{"EblScenario: reactive braking is not enabled"};
  return *collision_monitor_;
}

app::Beacon& EblScenario::beacon(std::size_t i) {
  if (!config_.beacon.enabled)
    throw std::logic_error{"EblScenario: beaconing is not enabled"};
  return *beacons_.at(i);
}

std::shared_ptr<phy::PropagationModel> make_propagation(const ScenarioConfig& config,
                                                        sim::Rng& rng) {
  std::shared_ptr<phy::PropagationModel> prop;
  if (config.propagation == PropagationType::kNakagami) {
    auto nakagami = std::make_shared<phy::NakagamiFading>(config.nakagami_m, rng);
    if (config.nakagami_node_streams)
      nakagami->enable_pair_streams(sim::mix_seed(config.seed, phy::kPairFadeSeedTag));
    prop = std::move(nakagami);
  } else {
    prop = std::make_shared<phy::TwoRayGround>();
  }
  if (config.blockage.enabled) {
    phy::IntersectionBlockageParams bp;
    bp.half_width_m = config.blockage.half_width_m;
    bp.corner_loss_db = config.blockage.corner_loss_db;
    prop = std::make_shared<phy::IntersectionBlockage>(prop, bp);
  }
  return prop;
}

IntersectionPlatoons build_platoons(sim::Scheduler& sched, const ScenarioConfig& config) {
  const double gap = config.vehicle_gap_m;
  const double v = config.speed_mps;
  const double a = config.decel_mps2;
  const std::size_t n = config.platoon_size;

  IntersectionPlatoons platoons;
  const double cruise_dist = v * config.platoon1_brake_at.to_seconds();
  const double brake_dist = mobility::Vehicle::stopping_distance(v, a);
  platoons.p1 = std::make_unique<mobility::Platoon>(
      sched, n, mobility::Vec2{0.0, -(cruise_dist + brake_dist)}, mobility::Vec2{0.0, 1.0}, gap);
  if (config.reactive.enabled) {
    platoons.p1->cruise(v);
    sched.schedule_at(config.platoon1_brake_at,
                      [p1 = platoons.p1.get(), a] { p1->lead()->brake(a); });
  } else {
    platoons.p1->drive_and_stop_at(mobility::Vec2{0.0, 0.0}, v, a);
  }

  platoons.p2 = std::make_unique<mobility::Platoon>(sched, n, mobility::Vec2{-3.0, 0.0},
                                                    mobility::Vec2{1.0, 0.0}, gap);
  sched.schedule_at(config.resolved_platoon2_depart(),
                    [p2 = platoons.p2.get(), v] { p2->cruise(v); });
  return platoons;
}

NodeStack build_node_stack(net::Env& env, phy::Channel& channel, const ScenarioConfig& config,
                           net::NodeId id, const std::shared_ptr<mobility::Vehicle>& vehicle) {
  NodeStack stack;
  stack.node = std::make_unique<net::Node>(env, id);
  stack.node->set_mobility(vehicle);
  stack.phy = std::make_unique<phy::WirelessPhy>(
      env, id, channel, [vehicle, &env] { return vehicle->position_at(env.now()); }, config.phy);

  std::unique_ptr<net::PacketQueue> ifq;
  if (config.use_red_queue) {
    ifq = std::make_unique<queue::RedQueue>(env.rng(), config.ifq_capacity, config.red);
  } else {
    ifq = std::make_unique<queue::PriQueue>(config.ifq_capacity);
  }
  std::unique_ptr<net::MacLayer> mac_layer;
  if (config.mac == MacType::kTdma) {
    // The frame must at least fit every node; beyond that the configured
    // slot count stands (NS-2 defaults to 64-slot frames regardless of
    // the active population).
    mac::TdmaParams tdma = config.tdma;
    tdma.num_slots = std::max(tdma.num_slots, 2 * config.platoon_size);
    mac_layer = std::make_unique<mac::MacTdma>(env, id, *stack.phy, std::move(ifq), tdma,
                                               static_cast<unsigned>(id));
  } else if (config.mac == MacType::kEdca) {
    mac_layer = std::make_unique<mac::Edca>(env, id, *stack.phy, std::move(ifq), config.edca);
  } else {
    mac_layer =
        std::make_unique<mac::Mac80211>(env, id, *stack.phy, std::move(ifq), config.mac80211);
  }
  if (config.use_arp) {
    mac_layer = std::make_unique<mac::ArpLayer>(env, std::move(mac_layer), config.arp);
  }

  std::unique_ptr<net::RoutingAgent> agent;
  switch (config.routing) {
    case RoutingType::kAodv:
      agent = std::make_unique<routing::Aodv>(env, id, config.aodv);
      break;
    case RoutingType::kDsdv:
      agent = std::make_unique<routing::Dsdv>(env, id, config.dsdv);
      break;
    case RoutingType::kStatic:
      // Every vehicle in this scenario is a single radio hop apart.
      agent = std::make_unique<routing::StaticRouting>(env, id, /*direct_by_default=*/true);
      break;
  }
  stack.node->set_mac(std::move(mac_layer));
  stack.node->set_routing(std::move(agent));
  return stack;
}

EblScenario::EblScenario(ScenarioConfig config) : config_{std::move(config)}, env_{config_.seed} {
  if (config_.platoon_size < 2)
    throw std::invalid_argument{"EblScenario: platoons need at least two vehicles"};
  if (config_.packet_bytes == 0 || config_.packet_bytes > 65'535)
    throw std::invalid_argument{"EblScenario: packet_bytes must be in [1, 65535]"};
  const double rate = config_.ebl.cbr_rate_bps;
  if (!(std::isfinite(rate) && rate > 0.0))
    throw std::invalid_argument{"EblScenario: ebl.cbr_rate_bps must be finite and > 0"};
  // The feeder schedules each send one interval after the last, so the
  // interval leaves half of sim::Time's range to the clock.
  const double interval_s = static_cast<double>(config_.packet_bytes) * 8.0 / rate;
  if (!(interval_s * 1e9 < 0x1p62) ||
      app::CbrSource::interval_for_rate(config_.packet_bytes, rate) <= sim::Time::zero())
    throw std::invalid_argument{
        "EblScenario: send interval packet_bytes * 8 / ebl.cbr_rate_bps must be at least 1 ns "
        "and below 2^62 ns"};
  if (config_.enable_trace) env_.set_trace_sink(&trace_);
  env_.metrics().set_enabled(config_.enable_metrics);
  channel_ = std::make_unique<phy::Channel>(env_, make_propagation(config_, env_.rng()),
                                            config_.channel);
  platoons_ = build_platoons(env_.scheduler(), config_);
  build_nodes();
  build_traffic();
  // Fault wiring: a node crash powers the radio off (detaching it from
  // the channel and the spatial grid, which kills in-flight deliveries)
  // and cascades through MAC + routing via Node::set_up.
  env_.faults().set_node_state_hook([this](std::uint32_t n, bool up) {
    if (n >= nodes_.size()) return;
    phys_[n]->set_down(!up);
    nodes_[n]->set_up(up);
  });
  env_.install_faults(config_.faults);
}

EblScenario::~EblScenario() = default;

void EblScenario::build_nodes() {
  for (std::size_t i = 0; i < 2 * config_.platoon_size; ++i) {
    NodeStack stack = build_node_stack(env_, *channel_, config_, static_cast<net::NodeId>(i),
                                       platoons_.vehicle(i));
    if (config_.routing == RoutingType::kAodv)
      aodvs_.push_back(static_cast<routing::Aodv*>(stack.node->routing()));
    phys_.push_back(std::move(stack.phy));
    nodes_.push_back(std::move(stack.node));
  }
}

void EblScenario::build_traffic() {
  const std::size_t n = config_.platoon_size;
  std::vector<net::Node*> p1_nodes, p2_nodes;
  for (std::size_t i = 0; i < n; ++i) p1_nodes.push_back(nodes_[i].get());
  for (std::size_t i = 0; i < n; ++i) p2_nodes.push_back(nodes_[n + i].get());

  EblConfig ebl = config_.ebl;
  ebl.packet_bytes = config_.packet_bytes;

  ebl1_ = std::make_unique<PlatoonEbl>(env_, *platoons_.p1, p1_nodes, ebl, /*base_port=*/1000);
  ebl2_ = std::make_unique<PlatoonEbl>(env_, *platoons_.p2, p2_nodes, ebl, /*base_port=*/3000);

  tput1_ = std::make_unique<trace::ThroughputMonitor>(
      env_, [this] { return ebl1_->total_sink_bytes(); }, config_.throughput_sample_interval);
  tput2_ = std::make_unique<trace::ThroughputMonitor>(
      env_, [this] { return ebl2_->total_sink_bytes(); }, config_.throughput_sample_interval);
  tput1_->start();
  tput2_->start();

  if (config_.beacon.enabled) {
    app::BeaconParams bp;
    bp.interval = config_.beacon.interval;
    bp.payload_bytes = config_.beacon.payload_bytes;
    bp.priority = config_.beacon.priority;
    bp.port = config_.beacon.port;
    bp.phase_seed = config_.seed;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      beacons_.push_back(
          std::make_unique<app::Beacon>(env_, *nodes_[i], phys_[i].get(), bp));
      beacons_.back()->start();
    }
  }

  if (config_.reactive.enabled) {
    // EblLink i feeds follower i+1's sink, so reactor i brakes the
    // vehicle its link actually notifies.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      reactors_.push_back(std::make_unique<EblBrakeReactor>(
          env_, ebl1_->mutable_link(i).mutable_sink(), platoons_.p1->vehicle(i + 1),
          config_.reactive.decel_mps2, config_.reactive.reaction));
    }
    std::vector<std::shared_ptr<mobility::Vehicle>> column;
    for (std::size_t i = 0; i < n; ++i) column.push_back(platoons_.p1->vehicle(i));
    collision_monitor_ =
        std::make_unique<CollisionMonitor>(env_, std::move(column), config_.reactive.min_gap_m);
    collision_monitor_->start();
  }
}

void EblScenario::run() { run_until(config_.duration); }

void EblScenario::run_until(sim::Time t) { env_.scheduler().run_until(t); }

}  // namespace eblnet::core
