#pragma once

#include <array>

#include "mac/csma_mac.hpp"
#include "queue/packet_ring.hpp"

namespace eblnet::mac {

/// 802.11e/802.11p access categories, lowest priority first. The numeric
/// order is the arbitration order: on an internal-collision tie the
/// highest category transmits and the lower ones back off.
enum class AccessCategory : std::uint8_t {
  kBackground = 0,  ///< AC_BK
  kBestEffort = 1,  ///< AC_BE
  kVideo = 2,       ///< AC_VI
  kVoice = 3,       ///< AC_VO
};

inline constexpr std::size_t kAccessCategoryCount = 4;

const char* to_string(AccessCategory ac) noexcept;

/// 802.1D user-priority (0-7) to access-category mapping (802.11 §10.2.4.2).
constexpr AccessCategory ac_for_priority(std::uint8_t priority) noexcept {
  switch (priority) {
    case 1:
    case 2:
      return AccessCategory::kBackground;
    case 0:
    case 3:
    default:
      return AccessCategory::kBestEffort;
    case 4:
    case 5:
      return AccessCategory::kVideo;
    case 6:
    case 7:
      return AccessCategory::kVoice;
  }
}

/// Per-category contention parameters: AIFS = SIFS + aifsn * slot.
struct EdcaAcParams {
  unsigned aifsn;
  unsigned cw_min;
  unsigned cw_max;
};

/// 802.11p (10 MHz OFDM) EDCA parameters. Timing follows the 802.11-2012
/// OCB profile: 13 us slots, 32 us SIFS, 40 us PLCP preamble+signal, and a
/// 6 Mb/s default rate for both data and control. The per-AC table is the
/// 802.11p default EDCA parameter set.
struct EdcaParams : CsmaTiming {
  EdcaParams()
      : CsmaTiming{6e6, 6e6, sim::Time::microseconds(std::int64_t{13}),
                   sim::Time::microseconds(std::int64_t{32}),
                   sim::Time::microseconds(std::int64_t{40})} {}

  /// Capacity of each internal AC queue (BK/VI/VO); AC_BE is served from
  /// the node's interface queue, which carries its own limit.
  std::size_t ac_queue_capacity{50};
  std::array<EdcaAcParams, kAccessCategoryCount> ac{{
      {9, 15, 1023},  // AC_BK
      {6, 15, 1023},  // AC_BE
      {3, 7, 15},     // AC_VI
      {2, 3, 7},      // AC_VO
  }};

  sim::Time aifs(AccessCategory c) const noexcept {
    return sifs + slot_time * static_cast<std::int64_t>(ac[static_cast<std::size_t>(c)].aifsn);
  }
};

/// IEEE 802.11e EDCA (as profiled by 802.11p for vehicular use): four
/// access categories contend independently, each with its own AIFS and
/// contention window, inside one station. A single arbitration timer fires
/// at the earliest per-AC grant time; when several categories reach their
/// grant in the same slot the highest one transmits and the others take an
/// internal collision (CW doubling plus a fresh draw, counted by
/// kMacInternalCollisions).
///
/// Broadcast frames — the CAM/BSM beacons the V2X scenarios rely on — are
/// fire-and-forget: no ACK, no retry, no RTS/CTS (which EDCA here never
/// uses, matching the 802.11p OCB profile where the exchange is absent).
/// Unicast data keeps the DCF positive-ACK/retransmission contract so the
/// routing stack's link-failure detection still works. The frame exchange
/// itself is CsmaMac's; this class is the per-AC access engine.
///
/// Frames map onto categories via Packet::priority (802.1D, see
/// ac_for_priority). AC_BE drains the node's interface queue so the
/// scenario's queue discipline/capacity knobs keep their meaning; the
/// other three categories use small internal drop-tail queues.
class Edca final : public CsmaMac {
 public:
  Edca(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
       std::unique_ptr<net::PacketQueue> ifq, EdcaParams params = {});

  void enqueue(net::Packet p) override;
  std::vector<net::Packet> flush_next_hop(net::NodeId next_hop) override;

  // statistics
  std::uint64_t internal_collision_count() const noexcept { return internal_collisions_; }
  std::uint64_t ac_tx_count(AccessCategory c) const noexcept {
    return st(c).tx_count;
  }
  std::size_t ac_queue_length(AccessCategory c) const noexcept;

 private:
  struct AcState {
    queue::PacketRing queue{0};        ///< bound set by the constructor; unused for AC_BE
    std::optional<net::Packet> frame;  ///< head frame contending for the medium
    int slots{-1};                     ///< remaining backoff slots; -1 = none drawn
    unsigned cw{0};
    unsigned retries{0};
    /// Slots already debited count from here within the current idle
    /// period (reset on every busy->idle edge); prevents double-debiting
    /// when the arbitration timer fires more than once per idle stretch.
    sim::Time debited_until{};
    std::uint64_t tx_count{0};
  };

  AcState& st(AccessCategory c) noexcept { return ac_[static_cast<std::size_t>(c)]; }
  const AcState& st(AccessCategory c) const noexcept {
    return ac_[static_cast<std::size_t>(c)];
  }

  // --- per-AC queueing (AC_BE rides ifq_, the rest are internal) ---
  bool ac_enqueue(AccessCategory c, net::Packet p);
  std::optional<net::Packet> ac_dequeue(AccessCategory c);
  void try_dequeue(AccessCategory c);

  // --- arbitration engine ---
  void medium_changed() override;
  sim::Time anchor(AccessCategory c) const;
  sim::Time grant_time(AccessCategory c) const;
  bool contending(AccessCategory c) const {
    const AcState& a = st(c);
    return a.frame.has_value() || a.slots >= 0;
  }
  void debit_countdowns();
  void pause_countdowns();
  void reschedule();
  void on_access_timer();
  void draw_backoff(AccessCategory c);
  void double_cw(AccessCategory c);
  void stop_access() override;

  // --- frame lifecycle ---
  void transmit_ac(AccessCategory c);
  net::Packet* on_response_timeout() override;
  void finish_frame() override;

  // --- receive side (EIFS) ---
  void on_rx_corrupt() override;
  void on_rx_clean() override;

  // arbitration state
  bool medium_was_busy_{false};
  bool countdown_running_{false};
  AccessCategory cur_ac_{AccessCategory::kBestEffort};  ///< category in service
  sim::Time idle_since_{};
  /// Time of the last corrupted reception; zero once a frame is decoded
  /// correctly again (EIFS rule, §9.3.2.3.7).
  sim::Time eifs_edge_{};

  EdcaParams params_;
  std::array<AcState, kAccessCategoryCount> ac_;

  sim::Timer access_timer_;

  std::uint64_t internal_collisions_{0};
};

}  // namespace eblnet::mac
