#pragma once

#include <memory>
#include <vector>

#include "core/ebl_app.hpp"
#include "core/reactor.hpp"
#include "mac/arp.hpp"
#include "mac/edca.hpp"
#include "mac/mac_80211.hpp"
#include "mac/mac_tdma.hpp"
#include "mobility/platoon.hpp"
#include "net/env.hpp"
#include "net/node.hpp"
#include "phy/wireless_phy.hpp"
#include "queue/red.hpp"
#include "routing/aodv.hpp"
#include "routing/dsdv.hpp"
#include "sim/fault.hpp"
#include "trace/throughput_monitor.hpp"
#include "trace/trace_manager.hpp"

namespace eblnet::app {
class Beacon;
}

namespace eblnet::core {

enum class MacType : std::uint8_t { kTdma, k80211, kEdca };

/// Network-layer choice: AODV is the paper's fixed parameter; DSDV and
/// pre-installed static routes are comparison baselines.
enum class RoutingType : std::uint8_t { kAodv, kDsdv, kStatic };

/// Channel model: two-ray ground is the paper's (and NS-2's) default;
/// Nakagami-m fast fading on top of two-ray is the de facto VANET
/// channel in later literature, offered for sensitivity/scaling studies.
enum class PropagationType : std::uint8_t { kTwoRay, kNakagami };

const char* to_string(MacType m) noexcept;
const char* to_string(RoutingType r) noexcept;
const char* to_string(PropagationType p) noexcept;

/// Closed-loop follower behaviour for the intersection scenario. When
/// enabled, platoon 1's followers abandon the scripted all-stop: only
/// the lead brakes on schedule, and each follower brakes solely because
/// its first EBL message arrived — `reaction` later, at `decel_mps2`
/// (an EblBrakeReactor per follower). A CollisionMonitor watches the
/// platoon 1 column, so whether the headway/network combination avoids
/// the rear-end collision becomes an *observed* outcome instead of the
/// paper's closed-form §III.E verdict.
struct ReactiveBrakingConfig {
  bool enabled{false};
  double decel_mps2{6.0};
  sim::Time reaction{sim::Time::milliseconds(100)};
  double min_gap_m{0.5};  ///< CollisionMonitor near-collision threshold
};

/// Periodic CAM/BSM broadcast beaconing on every node (app::Beacon).
/// Disabled by default: a scenario without beacons is bit-identical to a
/// build that predates the subsystem.
struct BeaconConfig {
  bool enabled{false};
  sim::Time interval{sim::Time::milliseconds(100)};  ///< 10 Hz
  std::size_t payload_bytes{200};
  std::uint8_t priority{5};  ///< 802.1D: 5 -> AC_VI under EDCA
  net::Port port{5005};
};

/// Corner-building NLOS attenuation at the intersection
/// (phy::IntersectionBlockage wrapped around the configured propagation
/// model, centred on the origin — where the platoons meet).
struct BlockageConfig {
  bool enabled{false};
  double half_width_m{10.0};   ///< half-width of each road corridor
  double corner_loss_db{10.0}; ///< extra loss on around-the-corner paths
};

/// Full configuration of the paper's two-platoon intersection scenario.
/// Defaults reproduce trial 1 (1000-byte packets over TDMA).
struct ScenarioConfig {
  // --- the paper's variable parameters ---
  std::size_t packet_bytes{1000};
  MacType mac{MacType::kTdma};

  // --- baselines (the paper fixes AODV) ---
  RoutingType routing{RoutingType::kAodv};

  /// Insert the NS-2-style ARP link layer below routing. Off by default
  /// (the calibrated trials exclude it); bench/ablation_arp measures its
  /// contribution to the initial-packet delay.
  bool use_arp{false};
  mac::ArpParams arp{};

  // --- the paper's fixed parameters ---
  std::size_t platoon_size{3};
  double speed_mps{22.352};  ///< 50 mph
  double vehicle_gap_m{5.0};
  double decel_mps2{5.0};
  std::size_t ifq_capacity{50};  ///< interface queue length (PriQueue or RED)

  /// Replace the paper's drop-tail PriQueue with RED (ablation only).
  bool use_red_queue{false};
  queue::RedParams red{};

  // --- scenario geometry / timing ---
  /// Platoon 1 approaches from the south and begins braking at this time
  /// (the paper's throughput plots ramp at ~2 s).
  sim::Time platoon1_brake_at{sim::Time::seconds(std::int64_t{2})};
  /// Platoon 2 departs (and stops communicating) at this time. Zero means
  /// "when platoon 1 has fully stopped", the paper's narrative.
  sim::Time platoon2_depart{};
  sim::Time duration{sim::Time::seconds(std::int64_t{62})};

  /// Instant platoon 1 is fully stopped at the intersection.
  sim::Time platoon1_stop_time() const {
    return platoon1_brake_at + sim::Time::seconds(speed_mps / decel_mps2);
  }
  /// platoon2_depart with the "auto" default resolved.
  sim::Time resolved_platoon2_depart() const {
    return platoon2_depart.is_zero() ? platoon1_stop_time() : platoon2_depart;
  }

  // --- traffic ---
  EblConfig ebl{};

  /// Closed-loop follower braking (off: the scripted all-stop).
  ReactiveBrakingConfig reactive{};

  /// CAM/BSM beaconing on every node (off: no beacon traffic exists).
  BeaconConfig beacon{};

  // --- stack parameters ---
  mac::Mac80211Params mac80211{};
  mac::EdcaParams edca{};
  mac::TdmaParams tdma{};
  phy::PhyParams phy{};
  /// Radio channel model. The paper's trials use two-ray ground;
  /// kNakagami layers gamma-distributed fast fading (shape nakagami_m,
  /// drawn from the scenario's seeded Rng) on top of it.
  PropagationType propagation{PropagationType::kTwoRay};
  double nakagami_m{3.0};
  /// Keyed per-pair Nakagami fade streams: each (tx, rx, transmit-time)
  /// evaluation reseeds a scratch Rng from a pure hash of the scenario
  /// seed, so fades do not depend on delivery order. Off by default: the
  /// shared-stream draws are the historical behaviour and stay
  /// bit-identical.
  bool nakagami_node_streams{false};
  /// Corner-building NLOS wrapping (off: pure line-of-sight model).
  BlockageConfig blockage{};
  /// Broadcast-delivery tuning: spatial-grid threshold and re-bucketing
  /// bounds (the defaults keep the paper's 6-vehicle trials on the flat
  /// loop and switch large populations to the grid).
  phy::ChannelParams channel{};
  routing::AodvParams aodv{};
  routing::DsdvParams dsdv{};
  sim::Time throughput_sample_interval{sim::Time::milliseconds(100)};

  std::uint64_t seed{1};
  bool enable_trace{true};

  /// Deterministic fault schedule (sim::FaultPlan). Empty by default —
  /// and an empty plan is guaranteed not to perturb the simulation in any
  /// way (bit-identical traces), so the paper's failure-free trials are
  /// unaffected by the subsystem's existence.
  sim::FaultPlan faults{};

  /// Turn on the per-layer metrics registry (sim::MetricsRegistry). Off by
  /// default so the hot path stays a single predicted branch; benches enable
  /// it when a JSON run manifest is requested.
  bool enable_metrics{false};
};

// --- Scenario assembly ------------------------------------------------
// The steps EblScenario builds its world from.

/// The channel model `config` selects: two-ray ground, or Nakagami
/// fading over it (keyed per-pair streams with nakagami_node_streams,
/// else draws from `rng`), wrapped in corner blockage when enabled.
std::shared_ptr<phy::PropagationModel> make_propagation(const ScenarioConfig& config,
                                                        sim::Rng& rng);

/// The scenario's two platoons. Node i rides vehicle(i): platoon 1's
/// members first, then platoon 2's.
struct IntersectionPlatoons {
  std::unique_ptr<mobility::Platoon> p1;
  std::unique_ptr<mobility::Platoon> p2;

  const std::shared_ptr<mobility::Vehicle>& vehicle(std::size_t node) const {
    return node < p1->size() ? p1->vehicle(node) : p2->vehicle(node - p1->size());
  }
};

/// Build both platoons on `sched` and schedule the motion script.
/// Platoon 1 approaches the intersection (the origin) from the south so
/// that braking starts exactly at platoon1_brake_at and the lead stops
/// at the origin (with reactive braking only its lead brakes on
/// schedule, the followers keep cruising). Platoon 2 waits on the cross
/// street just west of the intersection and departs east at
/// resolved_platoon2_depart().
IntersectionPlatoons build_platoons(sim::Scheduler& sched, const ScenarioConfig& config);

/// One vehicle's network stack, as the paper fixes it.
struct NodeStack {
  std::unique_ptr<net::Node> node;
  std::unique_ptr<phy::WirelessPhy> phy;
};

/// Node `id`'s stack: the interface queue (drop-tail PriQueue, or RED),
/// the MAC (TDMA in a frame of at least one slot per node, 802.11 or
/// EDCA), ARP below routing when enabled, and the routing agent. The
/// phy joins `channel` and tracks `vehicle`.
NodeStack build_node_stack(net::Env& env, phy::Channel& channel, const ScenarioConfig& config,
                           net::NodeId id, const std::shared_ptr<mobility::Vehicle>& vehicle);

/// The reference network model of the paper (§III.A): two platoons of
/// three vehicles at an intersection. Platoon 1 (nodes 0–2) approaches
/// from the south, brakes, stops, and communicates; platoon 2 (nodes 3–5)
/// starts stopped-and-communicating on the cross street and departs
/// east at `platoon2_depart`.
class EblScenario {
 public:
  /// Throws std::invalid_argument, naming the field, for a platoon of
  /// fewer than two vehicles, a packet_bytes of 0 or above 65,535 (the
  /// largest IP datagram), an ebl.cbr_rate_bps that is not finite and
  /// > 0, or a send interval (packet_bytes × 8 / rate) that rounds to
  /// 0 ns or reaches 2^62 ns (half of sim::Time's range).
  explicit EblScenario(ScenarioConfig config);
  ~EblScenario();

  EblScenario(const EblScenario&) = delete;
  EblScenario& operator=(const EblScenario&) = delete;

  /// Run the whole simulation (to config.duration).
  void run();

  /// Advance to an absolute simulation time (idempotent; run() finishes).
  void run_until(sim::Time t);

  // --- access for analysis ---
  const ScenarioConfig& config() const noexcept { return config_; }
  net::Env& env() noexcept { return env_; }
  phy::Channel& channel() noexcept { return *channel_; }
  const trace::TraceManager& trace() const noexcept { return trace_; }

  net::Node& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  mobility::Platoon& platoon1() noexcept { return *platoons_.p1; }
  mobility::Platoon& platoon2() noexcept { return *platoons_.p2; }
  PlatoonEbl& ebl1() noexcept { return *ebl1_; }
  PlatoonEbl& ebl2() noexcept { return *ebl2_; }
  const trace::ThroughputMonitor& throughput1() const noexcept { return *tput1_; }
  const trace::ThroughputMonitor& throughput2() const noexcept { return *tput2_; }
  phy::WirelessPhy& phy(std::size_t i) { return *phys_.at(i); }

  /// The node's AODV agent; throws unless config.routing == kAodv.
  routing::Aodv& aodv(std::size_t i);

  /// Platoon 1 follower `i`'s reactor (0 = the vehicle directly behind
  /// the lead); throws unless config.reactive.enabled.
  EblBrakeReactor& reactor(std::size_t i);
  /// The platoon 1 near-collision watcher; throws unless reactive mode.
  CollisionMonitor& collisions();

  /// Node `i`'s CAM/BSM beacon app; throws unless config.beacon.enabled.
  app::Beacon& beacon(std::size_t i);

  /// Node ids, platoon-relative.
  static constexpr net::NodeId kP1Lead = 0, kP1Middle = 1, kP1Trailing = 2;
  static constexpr net::NodeId kP2Lead = 3, kP2Middle = 4, kP2Trailing = 5;

 private:
  void build_nodes();
  void build_traffic();

  ScenarioConfig config_;
  trace::TraceManager trace_;
  net::Env env_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<phy::WirelessPhy>> phys_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<routing::Aodv*> aodvs_;  ///< non-owning views into nodes' agents
  IntersectionPlatoons platoons_;
  std::unique_ptr<PlatoonEbl> ebl1_;
  std::unique_ptr<PlatoonEbl> ebl2_;
  std::unique_ptr<trace::ThroughputMonitor> tput1_;
  std::unique_ptr<trace::ThroughputMonitor> tput2_;
  std::vector<std::unique_ptr<EblBrakeReactor>> reactors_;  ///< reactive mode only
  std::unique_ptr<CollisionMonitor> collision_monitor_;     ///< reactive mode only
  std::vector<std::unique_ptr<app::Beacon>> beacons_;       ///< beacon mode only
};

}  // namespace eblnet::core
