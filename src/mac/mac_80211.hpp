#pragma once

#include <optional>

#include "mac/mac_base.hpp"
#include "mac/uid_history.hpp"
#include "sim/timer.hpp"

namespace eblnet::mac {

/// 802.11 (DSSS) DCF parameters. Timing defaults are the classic
/// 802.11b values; the 11 Mb/s data rate with 1 Mb/s control/broadcast
/// rate matches NS-2 configurations of the paper's era.
struct Mac80211Params {
  /// 5.5 Mb/s (802.11b CCK) calibrates the scenario near the paper's
  /// operating point: the two EBL links offer 2.4 Mb/s of application
  /// load, ~90% of this rate's effective service capacity.
  double data_rate_bps{5.5e6};
  double basic_rate_bps{1e6};  ///< control frames, broadcasts, PLCP
  sim::Time slot_time{sim::Time::microseconds(std::int64_t{20})};
  sim::Time sifs{sim::Time::microseconds(std::int64_t{10})};
  sim::Time difs{sim::Time::microseconds(std::int64_t{50})};
  sim::Time plcp_overhead{sim::Time::microseconds(std::int64_t{192})};
  unsigned cw_min{31};
  unsigned cw_max{1023};
  unsigned short_retry_limit{7};  ///< frames sent without RTS protection
  unsigned long_retry_limit{4};   ///< data frames protected by RTS/CTS
  /// MAC payloads of at least this many bytes are preceded by RTS/CTS;
  /// SIZE_MAX disables the exchange entirely.
  std::size_t rts_threshold{SIZE_MAX};
  std::size_t data_header_bytes{34};  ///< 802.11 data header + FCS
  std::size_t ack_bytes{14};
  std::size_t rts_bytes{20};
  std::size_t cts_bytes{14};
  /// Allowance for propagation + rx/tx turnaround in response timeouts.
  sim::Time timeout_slack{sim::Time::microseconds(std::int64_t{15})};

  /// EIFS (802.11 §9.2.3.4): deferral used instead of DIFS after a frame
  /// is received in error, long enough for an unseen ACK exchange.
  sim::Time eifs(double ack_bits_at_basic_rate) const {
    return sifs + plcp_overhead +
           sim::Time::seconds(ack_bits_at_basic_rate / basic_rate_bps) + difs;
  }
};

/// IEEE 802.11 Distributed Coordination Function:
/// carrier sense (physical + NAV), DIFS deferral, binary-exponential
/// backoff with pause/resume, positive ACKs with retransmission and
/// contention-window doubling, optional RTS/CTS, duplicate filtering,
/// and link-failure indication to routing after the retry limit.
///
/// Simplifications vs the full standard (documented for reviewers):
/// no fragmentation, and a single retry counter per frame whose limit
/// depends on RTS protection.
class Mac80211 final : public MacBase {
 public:
  Mac80211(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
           std::unique_ptr<net::PacketQueue> ifq, Mac80211Params params = {});

  void enqueue(net::Packet p) override;
  bool detects_link_failures() const override { return true; }
  void set_link_up(bool up) override;

  const Mac80211Params& params() const noexcept { return params_; }

  // statistics
  std::uint64_t tx_data_count() const noexcept { return tx_data_; }
  std::uint64_t tx_retry_count() const noexcept { return tx_retries_; }
  std::uint64_t tx_drop_count() const noexcept { return tx_drops_; }
  std::uint64_t rx_dup_count() const noexcept { return rx_dups_; }

 private:
  enum class TxState : std::uint8_t { kIdle, kAccess, kWaitCts, kWaitAck };

  // --- medium / access engine ---
  bool medium_busy() const;
  void medium_changed();
  sim::Time access_deadline() const;
  void start_access();
  void on_difs_complete();
  void begin_countdown();
  void pause_backoff();
  void on_backoff_complete();
  void access_granted();
  void draw_backoff();
  bool engine_active() const { return difs_timer_.pending() || backoff_timer_.pending(); }

  // --- frame lifecycle ---
  void try_dequeue();
  void transmit_current();
  void send_data_frame();
  void on_data_tx_end();
  void on_response_timeout();
  void finish_frame();
  unsigned retry_limit_for_current() const;
  bool use_rts_for_current() const;

  // --- receive side ---
  void on_rx_end(net::Packet p, bool ok);
  void handle_data(net::Packet p);
  void handle_rts(const net::Packet& p);
  void handle_cts();
  void handle_ack();
  void schedule_response(net::Packet p, sim::Time airtime);
  void send_scheduled_response();
  void update_nav(sim::Time until);

  // --- helpers ---
  sim::Time data_airtime(const net::Packet& p) const;
  sim::Time ctrl_airtime(std::size_t bytes) const;
  net::Packet make_ctrl(net::PacketType type, net::NodeId dst, sim::Time duration);

  Mac80211Params params_;

  // access engine state
  bool medium_was_busy_{false};
  sim::Time idle_since_{};
  int pending_backoff_slots_{-1};
  sim::Time backoff_anchor_{};
  sim::Time nav_until_{};
  /// After a corrupted reception, access defers until here (EIFS rule).
  sim::Time eifs_until_{};
  unsigned cw_;

  // frame in service
  TxState state_{TxState::kIdle};
  std::optional<net::Packet> tx_frame_;
  unsigned retries_{0};
  bool cts_received_{false};

  // SIFS-spaced response (ACK / CTS / post-CTS data)
  std::optional<net::Packet> pending_response_;
  sim::Time pending_response_airtime_{};
  bool response_is_data_{false};

  UidHistory seen_;  ///< duplicate detection

  sim::Timer difs_timer_;
  sim::Timer backoff_timer_;
  sim::Timer response_timer_;
  sim::Timer nav_timer_;
  sim::Timer response_tx_timer_;
  sim::Timer post_tx_timer_;

  std::uint64_t tx_data_{0};
  std::uint64_t tx_retries_{0};
  std::uint64_t tx_drops_{0};
  std::uint64_t rx_dups_{0};
};

}  // namespace eblnet::mac
