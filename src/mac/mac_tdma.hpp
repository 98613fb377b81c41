#pragma once

#include "mac/mac_base.hpp"
#include "sim/timer.hpp"

namespace eblnet::mac {

/// TDMA frame plan shared by every node in the network (centralised
/// static schedule, as in NS-2's Mac/Tdma): the frame has one slot per
/// node, each slot wide enough for the largest allowed packet. A node may
/// transmit exactly one packet per frame, at the start of its own slot —
/// collision-free by construction, so there are no ACKs and no carrier
/// sensing.
struct TdmaParams {
  double data_rate_bps{11e6};
  /// Slots per frame. NS-2's Mac/Tdma sizes the frame for its configured
  /// maximum node count (default 64), NOT the number of active nodes —
  /// the idle slots are what make TDMA's latency so poor in the paper's
  /// six-node scenario. bench/ablation_tdma_slots quantifies this.
  std::size_t num_slots{64};
  /// Largest MAC payload a slot must fit (IP packet incl. headers).
  std::size_t max_packet_bytes{1540};
  std::size_t data_header_bytes{34};
  sim::Time plcp_overhead{sim::Time::microseconds(std::int64_t{192})};
  sim::Time guard_time{sim::Time::microseconds(std::int64_t{25})};

  sim::Time slot_duration() const {
    return plcp_overhead +
           sim::Time::seconds(static_cast<double>(max_packet_bytes + data_header_bytes) * 8.0 /
                              data_rate_bps) +
           guard_time;
  }
  sim::Time frame_duration() const {
    return slot_duration() * static_cast<std::int64_t>(num_slots);
  }
};

/// Time-Division Multiple Access MAC. `slot_index` assigns this node's
/// slot in the global frame; every node in a simulation must share the
/// same TdmaParams for the schedule to be collision-free (verified by the
/// slot-exclusivity property tests).
///
/// TDMA provides no delivery feedback, so `detects_link_failures()` is
/// false and AODV falls back to HELLO-based neighbour tracking.
class MacTdma final : public MacBase {
 public:
  MacTdma(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
          std::unique_ptr<net::PacketQueue> ifq, TdmaParams params, unsigned slot_index);

  void enqueue(net::Packet p) override;
  bool detects_link_failures() const override { return false; }
  void set_link_up(bool up) override;

  const TdmaParams& params() const noexcept { return params_; }
  unsigned slot_index() const noexcept { return slot_index_; }

  std::uint64_t tx_data_count() const noexcept { return tx_data_; }
  std::uint64_t oversize_drop_count() const noexcept { return oversize_drops_; }

 private:
  void on_slot_start();
  void schedule_next_slot();
  void on_rx_end(net::Packet&& p, bool ok);

  TdmaParams params_;
  unsigned slot_index_;
  sim::Timer slot_timer_;
  std::uint64_t tx_data_{0};
  std::uint64_t oversize_drops_{0};
};

}  // namespace eblnet::mac
