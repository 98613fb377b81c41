#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace eblnet::sim {

/// Fault classes the controller can inject. Each maps to a hook in one
/// stack layer (see DESIGN.md §3.6 for the full model):
///
/// - kNodeCrash: the node's radio detaches, its MAC timers stop, its
///   interface queue is flushed and its routing state is reset; a
///   non-zero duration reboots it afterwards (cold start).
/// - kRegionBlackout: RF delivery inside a disc (or everywhere) is
///   suppressed receiver-side for the duration — a hard outage.
/// - kLinkPer: deliveries matching the (tx, rx) filter are dropped with
///   probability `magnitude` — a lossy link/area.
/// - kRfJam: a duty-cycled noise emitter (burst/period) driven through
///   the jam-burst hook; the embedder radiates the actual energy from a
///   phy it owns. Without a hook the event is inert.
enum class FaultKind : std::uint8_t {
  kNodeCrash,
  kRegionBlackout,
  kLinkPer,
  kRfJam,
};

const char* to_string(FaultKind k) noexcept;

/// Wildcard for the node/peer filters of kLinkPer.
inline constexpr std::uint32_t kAnyNode = 0xffffffffu;

/// One scheduled fault. Which fields are meaningful depends on `kind`;
/// the FaultPlan fluent helpers fill them consistently.
struct FaultEvent {
  FaultKind kind{FaultKind::kNodeCrash};
  Time at{};        ///< activation time
  Time duration{};  ///< zero = permanent (lasts to the end of the run)
  std::uint32_t node{kAnyNode};  ///< crash target; kLinkPer transmitter filter
  std::uint32_t peer{kAnyNode};  ///< kLinkPer receiver filter
  double magnitude{0.0};         ///< kLinkPer drop probability
  double x{0.0};                 ///< region centre (blackout / jam)
  double y{0.0};
  double radius{-1.0};           ///< region radius in metres; < 0 = everywhere
  std::int64_t rf_channel{-1};   ///< jam: only this frequency channel; -1 = all
  Time period{};                 ///< jam duty cycle period
  Time burst{};                  ///< jam on-time per period
};

/// Declarative, seeded schedule of fault events — the unit a scenario is
/// configured with (core::ScenarioBuilder::with_faults). An empty plan
/// is the default and is guaranteed to leave a run bit-identical to one
/// without any fault subsystem: installation of an empty plan schedules
/// nothing and draws nothing.
struct FaultPlan {
  /// Seed of the controller's dedicated RNG stream, mixed with the
  /// scenario seed at install time. Fault randomness (PER draws) never
  /// touches the scenario's Rng, so a plan whose events draw nothing
  /// perturbs nothing.
  std::uint64_t rng_seed{0xfa0175b5ULL};
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }

  // --- fluent helpers (each returns *this for chaining) ---
  /// Crash `node` at `at`; reboot after `reboot_after` (zero = never).
  FaultPlan& crash(std::uint32_t node, Time at, Time reboot_after = {});
  /// Suppress RF delivery to receivers within `radius` of (x, y) — or
  /// everywhere when radius < 0 — for `duration`.
  FaultPlan& blackout(Time at, Time duration, double x = 0.0, double y = 0.0,
                      double radius = -1.0);
  /// Drop deliveries from `tx` to `rx` (kAnyNode = wildcard) with
  /// probability `rate` for `duration`.
  FaultPlan& link_per(Time at, Time duration, double rate, std::uint32_t tx = kAnyNode,
                      std::uint32_t rx = kAnyNode);
  /// Duty-cycled jam: a `burst` of noise every `period` for `duration`,
  /// radiated through the jam-burst hook.
  FaultPlan& jam(Time at, Time duration, Time period, Time burst,
                 std::int64_t rf_channel = -1);
};

/// Executes a FaultPlan against one simulation. Owned by net::Env (one
/// controller per environment, like the Rng and the MetricsRegistry) and
/// consulted by the layers on their hot paths.
///
/// Hot-path contract: every query is gated on a counter of currently
/// active faults of that category, so an uninstalled (or quiescent)
/// controller costs one predicted branch per call — and a run with an
/// empty plan is bit-identical to one that never heard of faults.
class FaultController {
 public:
  FaultController() = default;
  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Called when a node crashes (up = false) or reboots (up = true); the
  /// scenario wires this to the phy detach + MAC/routing reset cascade.
  using NodeStateHook = std::function<void(std::uint32_t node, bool up)>;
  /// Called once per jam burst; the embedder radiates `event.burst` of
  /// noise from whatever phy plays the jammer.
  using JamBurstHook = std::function<void(const FaultEvent& event)>;

  void set_node_state_hook(NodeStateHook hook) { node_state_hook_ = std::move(hook); }
  void set_jam_burst_hook(JamBurstHook hook) { jam_burst_hook_ = std::move(hook); }

  /// Validate `plan` and schedule its events. A no-op for an empty plan.
  /// `metrics` may be null; `scenario_seed` is mixed into the plan's
  /// dedicated RNG stream so distinct seeds decorrelate fault draws.
  /// Throws std::invalid_argument on malformed events, std::logic_error
  /// if called twice.
  void install(const FaultPlan& plan, Scheduler& scheduler, MetricsRegistry* metrics,
               std::uint64_t scenario_seed);

  bool installed() const noexcept { return installed_; }

  // --- hot-path queries -------------------------------------------------

  /// True while `node` is crashed.
  bool node_down(std::uint32_t node) const noexcept {
    if (down_count_ == 0) return false;
    return node < down_.size() && down_[node] != 0;
  }

  /// True while any blackout/PER fault is active — the cheap gate the
  /// channel checks before paying for the per-delivery query.
  bool delivery_faults_active() const noexcept { return delivery_active_ != 0; }

  /// Should this delivery be suppressed? Receiver-side, called by
  /// phy::Channel after spatial-grid culling and the propagation test.
  /// (rx_x, rx_y) is the receiver's position, for region faults.
  bool drop_delivery(std::uint32_t tx, std::uint32_t rx, double rx_x, double rx_y);

  // --- bookkeeping for resilience metrics -------------------------------

  struct CrashRecord {
    std::uint32_t node;
    Time at;
    Time reboot_at;  ///< zero when the node never reboots
  };
  const std::vector<CrashRecord>& crashes() const noexcept { return crashes_; }
  std::uint64_t injected_drops() const noexcept { return injected_drops_; }
  std::uint64_t jam_bursts() const noexcept { return jam_bursts_; }

 private:
  struct DeliveryFault {
    FaultKind kind;  ///< kRegionBlackout or kLinkPer
    bool active{false};
    std::uint32_t tx{kAnyNode};
    std::uint32_t rx{kAnyNode};
    double rate{1.0};
    double x{0.0}, y{0.0}, radius{-1.0};
  };

  void activate(std::size_t index);
  void deactivate(std::size_t index);
  void jam_tick(std::size_t index, Time end);
  void set_node_down(std::uint32_t node, bool down);

  bool installed_{false};
  Scheduler* scheduler_{nullptr};
  MetricsRegistry* metrics_{nullptr};
  Rng rng_{};

  std::vector<FaultEvent> events_;
  /// events_ index -> slot in the per-category tables below.
  std::vector<std::size_t> slot_of_event_;

  std::vector<std::uint8_t> down_;  ///< per-node crashed flag
  std::uint32_t down_count_{0};

  std::vector<DeliveryFault> delivery_;
  std::uint32_t delivery_active_{0};

  NodeStateHook node_state_hook_;
  JamBurstHook jam_burst_hook_;

  std::vector<CrashRecord> crashes_;
  std::uint64_t injected_drops_{0};
  std::uint64_t jam_bursts_{0};
};

}  // namespace eblnet::sim
