#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "mobility/vec2.hpp"
#include "net/env.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "phy/propagation.hpp"
#include "phy/spatial_grid.hpp"
#include "sim/timer.hpp"

namespace eblnet::phy {

class Channel;

/// Radio parameters. Defaults are NS-2's 914 MHz WaveLAN values: a
/// 0.28 W transmitter reaches 250 m at the receive threshold and 550 m at
/// the carrier-sense threshold under two-ray ground propagation.
struct PhyParams {
  double tx_power_w{0.28183815};
  double rx_threshold_w{3.652e-10};   ///< decodable above this (250 m)
  double cs_threshold_w{1.559e-11};   ///< sensed (busy) above this (550 m)
  double capture_ratio{10.0};         ///< 10 dB capture threshold (CPThresh)
};

/// Half-duplex wireless transceiver with NS-2-style threshold reception:
///
/// - signals below the carrier-sense threshold are invisible;
/// - signals between CS and RX thresholds make the medium busy but cannot
///   be decoded (and interfere with an ongoing reception);
/// - overlapping receptions collide unless one is `capture_ratio` times
///   stronger than the other (physical capture);
/// - transmitting aborts any ongoing reception (half duplex).
///
/// The MAC above observes carrier transitions (for CSMA) and receives
/// every decoded-or-collided frame end with a validity flag.
class WirelessPhy {
 public:
  using PositionFn = std::function<mobility::Vec2()>;
  /// (frame, ok): ok=false means the frame ended but was corrupted by a
  /// collision; the MAC normally just counts it. The frame is the phy's
  /// own decoded copy, passed by rvalue reference: a layer that keeps it
  /// moves it into its own storage, and nothing stores the reference.
  using RxEndCallback = std::function<void(net::Packet&&, bool ok)>;
  using CarrierCallback = std::function<void(bool busy)>;

  WirelessPhy(net::Env& env, net::NodeId owner, Channel& channel, PositionFn position,
              PhyParams params = {});
  ~WirelessPhy();

  WirelessPhy(const WirelessPhy&) = delete;
  WirelessPhy& operator=(const WirelessPhy&) = delete;

  // --- MAC-facing interface ---

  /// Radiate `p` for `duration` (airtime computed by the MAC from its
  /// rate and framing). Must not already be transmitting.
  void transmit(net::Packet p, sim::Time duration);

  bool transmitting() const noexcept { return env_.now() < tx_until_; }
  bool receiving() const noexcept { return rx_active_; }

  /// Physical carrier sense: any energy above CS threshold, or own tx.
  bool carrier_busy() const noexcept { return transmitting() || env_.now() < busy_until_; }

  void set_rx_end_callback(RxEndCallback cb) { rx_end_cb_ = std::move(cb); }
  void set_carrier_callback(CarrierCallback cb) { carrier_cb_ = std::move(cb); }

  // --- Channel-facing interface ---

  /// A signal from another phy starts arriving with the given received
  /// power. Called by Channel (already above the CS threshold). The frame
  /// is the broadcast's one copy: the phy clones it into the Env's
  /// PacketPool only where it keeps it, for a new reception above the RX
  /// threshold or a capture. A signal that is only carrier, arrives while
  /// the radio transmits, or collides at comparable power copies nothing.
  void signal_start(const net::Packet& p, double rx_power_w, sim::Time duration);

  mobility::Vec2 position() const { return position_(); }
  net::NodeId owner() const noexcept { return owner_; }
  const PhyParams& params() const noexcept { return params_; }

  /// Frequency channel this radio is tuned to. Radios only hear signals
  /// on their own channel (the substrate for FHSS-style DoS hardening).
  /// Retuning aborts any reception in progress and clears carrier state —
  /// energy on the old channel is no longer visible.
  std::uint32_t channel_id() const noexcept { return channel_id_; }
  void set_channel_id(std::uint32_t id);

  /// Power the radio off (injected node crash) or back on. Off: the phy
  /// detaches from the channel — its delivery slot's generation bump
  /// kills every in-flight signal addressed to it, and the spatial grid
  /// forgets it — any reception in progress evaporates (no collision
  /// accounting: the radio is dead, not interfered with) and transmit
  /// requests are swallowed. On: re-attach with a cold carrier state.
  void set_down(bool down);
  bool down() const noexcept { return down_; }

  // --- statistics ---
  std::uint64_t tx_count() const noexcept { return tx_count_; }
  std::uint64_t rx_ok_count() const noexcept { return rx_ok_count_; }
  std::uint64_t rx_collision_count() const noexcept { return rx_collision_count_; }

  /// Cumulative time the carrier has been sensed busy (own transmissions
  /// included) — the numerator of the channel busy ratio (CBR) that
  /// beaconing congestion studies report. Maintained on the carrier
  /// transitions update_carrier() already detects, so it costs no extra
  /// events and leaves event/RNG sequences untouched.
  sim::Time busy_time() const noexcept {
    return carrier_was_busy_ ? busy_accum_ + (env_.now() - busy_edge_) : busy_accum_;
  }

 private:
  friend class Channel;
  friend class SpatialGrid;

  void note_busy_until(sim::Time t);
  /// (Re)arms the rx-end shot at `end`. Its new seq follows any reserved
  /// carrier shot's, so that shot no longer rides on it.
  void arm_rx_end(sim::Time end);
  void update_carrier();
  /// Arms the carrier shot at `until`, or reserves its key (see
  /// update_carrier).
  void arm_carrier(sim::Time until);
  void finish_reception();
  void abort_reception();

  // --- Channel/SpatialGrid bookkeeping ---
  // Owned by the Channel this phy is attached to; kept inline here so the
  // broadcast hot path needs no side-table lookups.
  std::uint32_t chan_slot_{0};      ///< delivery-liveness slot in the channel
  std::uint32_t chan_index_{0};     ///< position in the channel's attach-order list
  std::uint64_t attach_seq_{0};     ///< stable iteration order for grid queries
  std::int32_t grid_cx_{0};         ///< cached grid cell (valid iff grid_bucketed_)
  std::int32_t grid_cy_{0};
  std::uint32_t grid_idx_{0};       ///< index within the bucket's parallel arrays
  bool grid_bucketed_{false};

  net::Env& env_;
  net::NodeId owner_;
  Channel& channel_;
  PositionFn position_;
  PhyParams params_;
  std::uint32_t channel_id_{0};
  bool down_{false};

  sim::Time tx_until_{};
  sim::Time busy_until_{};

  // Current (single) reception being decoded.
  bool rx_active_{false};
  bool rx_ok_{false};
  double rx_power_{0.0};
  net::PooledPacket rx_packet_;
  sim::Timer rx_end_timer_;
  sim::Timer carrier_timer_;

  bool carrier_was_busy_{false};
  /// The rx-end shot has not moved since the carrier shot's key was
  /// reserved.
  bool rx_end_covers_carrier_{false};
  sim::Time busy_accum_{};  ///< completed busy intervals
  sim::Time busy_edge_{};   ///< start of the current busy interval
  /// The carrier shot's reserved key while it is held instead of queued
  /// (seq 0: none held).
  sim::Time carrier_reserved_at_{};
  std::uint64_t carrier_reserved_seq_{0};

  RxEndCallback rx_end_cb_;
  CarrierCallback carrier_cb_;

  std::uint64_t tx_count_{0};
  std::uint64_t rx_ok_count_{0};
  std::uint64_t rx_collision_count_{0};
};

/// Tuning knobs for the channel's broadcast-delivery path.
struct ChannelParams {
  /// Below this many attached phys every broadcast walks the flat
  /// attach-order loop (the paper's 6-vehicle trials take this path); at
  /// or above it, candidates come from the spatial grid. For
  /// deterministic propagation models the two paths produce the identical
  /// delivery set in the identical order, so the threshold is purely a
  /// constant-factor tradeoff: grid maintenance is not worth it for a
  /// handful of nodes.
  std::size_t grid_min_phys{16};
  /// Upper bound on node speed assumed by lazy re-bucketing: a bucketed
  /// position may drift at most `grid_max_speed_mps * grid_rebucket_period`
  /// metres before the next full re-bucket pass, and grid queries are
  /// padded by exactly that slack. Nodes exceeding this speed may be
  /// missed by grid culling. 70 m/s ≈ 250 km/h.
  double grid_max_speed_mps{70.0};
  /// Maximum bucket staleness: a grid-path transmit at least this long
  /// after the previous full re-bucket first re-buckets every phy (an
  /// O(N) pass amortised over all transmits within the period).
  sim::Time grid_rebucket_period{sim::Time::milliseconds(500)};
};

/// The shared broadcast medium: fans a transmission out to every other
/// attached phy whose received power clears its carrier-sense threshold,
/// after the speed-of-light propagation delay.
///
/// With few phys attached, each transmission evaluates the propagation
/// model against every other phy (flat attach-order loop). At
/// `ChannelParams::grid_min_phys` and beyond, a uniform spatial grid
/// (SpatialGrid) prunes the candidate set to the 3x3 cell neighbourhood
/// of the sender — cells are sized to the maximum interference range
/// `envelope_rx_power(max tx power) >= min cs threshold` over the attached
/// phys, plus mobility slack — making a broadcast O(neighbours) instead of
/// O(N). Candidates are iterated in stable attach order and filtered by
/// the exact same per-receiver propagation test as the flat loop, so both
/// paths deliver the identical set in the identical order for
/// deterministic models (for fading models, grid culling uses the
/// deterministic envelope and skips the per-candidate fade draw of
/// out-of-range phys; see DESIGN.md §3.5).
///
/// Deliveries are scheduled against a (slot, generation) liveness table
/// rather than a raw phy pointer: a phy detached (even destroyed) while a
/// signal is in flight simply never receives it.
///
/// A broadcast's deliveries ride on one queued event. transmit() reserves
/// one seq per receiver (Scheduler::reserve_seqs), in receiver order, and
/// fills a pooled fan-out record: the frame, the sender, the airtime and
/// the arrivals sorted by (time, seq). The record's event delivers the
/// next arrival, then claims each following key (Scheduler::claim) and
/// delivers it inline while nothing queued comes first, and otherwise
/// re-queues itself at that key. So every delivery runs at its own
/// reserved key, as if it were an event of its own, and counts as one
/// executed event.
class Channel {
 public:
  Channel(net::Env& env, std::shared_ptr<PropagationModel> propagation,
          ChannelParams params = {});

  void attach(WirelessPhy* phy);
  void detach(WirelessPhy* phy);

  /// Fan `p` out to every in-range receiver. The frame moves into the
  /// broadcast's fan-out record, and each receiver reads it there; only a
  /// receiver that starts decoding copies it (WirelessPhy::signal_start).
  /// A broadcast with N listeners queues one event and, once the record
  /// pool and the PacketPool are warm, allocates nothing.
  void transmit(WirelessPhy& sender, net::Packet p, sim::Time duration);

  const PropagationModel& propagation() const noexcept { return *propagation_; }
  const ChannelParams& params() const noexcept { return params_; }
  /// Phys currently attached.
  std::size_t phy_count() const noexcept { return phys_.size() - phy_holes_; }

  /// True when the next transmit will take the grid path.
  bool grid_active() const noexcept { return phy_count() >= params_.grid_min_phys; }

  /// Declare that attached phys may move at up to `mps` metres/second.
  /// `ChannelParams::grid_max_speed_mps` is an *assumption* that holds for
  /// the closed-form scripted models (their speeds are fixed at
  /// construction), but a stateful dynamics engine (mobility::TrafficFlow)
  /// can accelerate vehicles past any static guess — so it must declare
  /// its own bound here and the re-bucketing staleness slack uses
  /// max(assumed, declared). The bound is monotone (it only ever grows);
  /// raising it past the slack baked into the current cell size forces a
  /// grid rebuild on the next transmit, so an accelerating vehicle can
  /// never outrun the cull radius.
  void raise_speed_bound(double mps);
  double speed_bound_mps() const noexcept {
    return dynamic_speed_bound_mps_ > params_.grid_max_speed_mps ? dynamic_speed_bound_mps_
                                                                 : params_.grid_max_speed_mps;
  }

  // --- statistics (perf_scale and perfbench's phy layer read them) ---
  /// Transmissions fanned out.
  std::uint64_t broadcasts() const noexcept { return broadcast_count_; }
  /// Candidate receivers put through the exact per-receiver filter (flat:
  /// N-1 per transmit; grid: phase-1 survivors only).
  std::uint64_t pair_evaluations() const noexcept { return pair_evaluations_; }
  /// SoA lanes swept by the phase-1 batched cull across all broadcasts.
  std::uint64_t batch_lanes() const noexcept { return batch_lane_count_; }
  /// Lanes rejected by phase 1 (beyond the channel's query radius) before
  /// ever dereferencing the phy or drawing a fade.
  std::uint64_t batch_culled() const noexcept { return batch_culled_count_; }
  /// Full O(N) re-bucket passes performed.
  std::uint64_t grid_rebuckets() const noexcept { return grid_rebucket_count_; }

  /// One receiver of the most recent transmit (diagnostic/test hook).
  struct Reachable {
    WirelessPhy* rx;
    std::uint32_t slot;
    std::uint32_t generation;
    double power_w;
    sim::Time prop_delay;
  };
  /// The receiver list of the most recent transmit, in delivery order —
  /// the grid/flat equivalence property test compares these.
  const std::vector<Reachable>& last_reachable() const noexcept { return scratch_; }

 private:
  friend class WirelessPhy;

  void rebuild_grid();
  void rebucket_all();
  /// Drop the detach holes from phys_, keeping attach order.
  void compact_phys();
  /// The cell size and phase-1 cull radius: the interference range plus
  /// mobility slack.
  double query_radius() const noexcept;
  double mobility_slack() const noexcept;
  /// One receiver of a broadcast, at its reserved (time, seq) key.
  struct Arrival {
    sim::Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    double power_w;
  };
  /// One broadcast in flight. Records are pooled and never move: a
  /// delivery's callbacks may transmit again and take another record
  /// while this one's event runs.
  struct FanOut {
    net::Packet frame;
    net::NodeId tx{0};
    sim::Time duration{};
    std::vector<Arrival> arrivals;  ///< sorted by (at, seq)
    std::size_t next{0};            ///< the next arrival to deliver
  };

  void deliver(const FanOut& f, const Arrival& a);
  /// Moves `p` into a fan-out record for scratch_'s receivers and queues
  /// its event at the earliest arrival.
  void schedule_deliveries(net::NodeId tx, net::Packet&& p, sim::Time duration);
  /// The fan-out event: delivers f's next arrival, then each following
  /// one that Scheduler::claim allows; re-queues itself at the first that
  /// it does not, or frees the record after the last.
  void fan_out(FanOut& f);

  /// Grid/flat candidate selection + exact filter: fills scratch_ with
  /// `sender`'s receivers, in delivery order.
  void collect_receivers(WirelessPhy& sender);

  net::Env& env_;
  std::shared_ptr<PropagationModel> propagation_;
  ChannelParams params_;
  /// Attached phys in attach order — the flat loop's delivery order.
  /// Detach nulls the phy's entry (found through chan_index_) instead of
  /// shifting the tail, so tearing down N radios is O(N), not O(N²); the
  /// holes are squeezed out stably once they exceed half the list.
  std::vector<WirelessPhy*> phys_;
  std::size_t phy_holes_{0};
  std::vector<Reachable> scratch_;  ///< per-transmit receiver list, reused
  std::vector<std::unique_ptr<FanOut>> fanouts_;  ///< every record, owned
  std::vector<FanOut*> free_fanouts_;

  // Delivery liveness: slots_[phy->chan_slot_] == phy while attached.
  // Detach clears the slot; re-attach into a recycled slot bumps its
  // generation, so an in-flight delivery captured under the old
  // generation is dropped instead of dereferencing a dead phy.
  std::vector<WirelessPhy*> slots_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_attach_seq_{0};

  // Spatial index (built lazily on the first grid-path transmit).
  SpatialGrid grid_;
  bool grid_built_{false};
  bool range_dirty_{true};
  sim::Time last_rebucket_{};
  double interference_range_m_{0.0};
  /// Monotone speed bound declared by a stateful dynamics side (see
  /// raise_speed_bound); 0 when only closed-form models are attached.
  double dynamic_speed_bound_mps_{0.0};
  /// Extremes over attached phys; conservative (never shrink on detach).
  double max_tx_power_w_{0.0};
  double min_cs_threshold_w_{std::numeric_limits<double>::infinity()};
  std::vector<GridCandidate> candidates_;  ///< grid query scratch, reused

  std::uint64_t broadcast_count_{0};
  std::uint64_t pair_evaluations_{0};
  std::uint64_t batch_lane_count_{0};
  std::uint64_t batch_culled_count_{0};
  std::uint64_t grid_rebucket_count_{0};
};

}  // namespace eblnet::phy
