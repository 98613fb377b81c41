#pragma once

#include <optional>

#include "mac/csma_mac.hpp"

namespace eblnet::mac {

/// 802.11 (DSSS) DCF parameters. Timing defaults are the classic
/// 802.11b values; the 1 Mb/s control/broadcast rate matches NS-2
/// configurations of the paper's era.
struct Mac80211Params : CsmaTiming {
  /// Data at 5.5 Mb/s (802.11b CCK) calibrates the scenario near the
  /// paper's operating point: the two EBL links offer 2.4 Mb/s of
  /// application load, ~90% of this rate's effective service capacity.
  /// Control frames, broadcasts and the PLCP go at 1 Mb/s; 20 us slots,
  /// 10 us SIFS, 192 us PLCP preamble+header.
  Mac80211Params()
      : CsmaTiming{5.5e6, 1e6, sim::Time::microseconds(std::int64_t{20}),
                   sim::Time::microseconds(std::int64_t{10}),
                   sim::Time::microseconds(std::int64_t{192})} {}

  sim::Time difs{sim::Time::microseconds(std::int64_t{50})};
  unsigned cw_min{31};
  unsigned cw_max{1023};
  unsigned long_retry_limit{4};  ///< data frames protected by RTS/CTS
  /// MAC payloads of at least this many bytes are preceded by RTS/CTS;
  /// SIZE_MAX disables the exchange entirely.
  std::size_t rts_threshold{SIZE_MAX};
  std::size_t rts_bytes{20};
  std::size_t cts_bytes{14};

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
/// and link-failure indication to routing after the retry limit. The
/// frame exchange itself is CsmaMac's; this class is the access engine.
///
/// Simplifications vs the full standard (documented for reviewers):
/// no fragmentation, and a single retry counter per frame whose limit
/// depends on RTS protection.
class Mac80211 final : public CsmaMac {
 public:
  Mac80211(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
           std::unique_ptr<net::PacketQueue> ifq, Mac80211Params params = {});

  void enqueue(net::Packet p) override;

 private:
  // --- medium / access engine ---
  void medium_changed() override;
  sim::Time access_deadline() const;
  void start_access();
  void on_difs_complete();
  void begin_countdown();
  void pause_backoff();
  void on_backoff_complete();
  void access_granted();
  void draw_backoff();
  bool engine_active() const { return difs_timer_.pending() || backoff_timer_.pending(); }
  void stop_access() override;

  // --- frame lifecycle ---
  void try_dequeue();
  void transmit_current();
  net::Packet* on_response_timeout() override;
  void finish_frame() override;
  unsigned retry_limit_for_current() const;
  bool use_rts_for_current() const;

  // --- receive side ---
  void on_rx_corrupt() override;
  void on_rx_clean() override;
  void handle_rts_cts(const net::Packet& p) override;

  // access engine state
  bool medium_was_busy_{false};
  bool cts_received_{false};  ///< for the frame in service
  int pending_backoff_slots_{-1};
  unsigned cw_;
  unsigned retries_{0};  ///< of the frame in service
  sim::Time idle_since_{};
  sim::Time backoff_anchor_{};
  /// After a corrupted reception, access defers until here (EIFS rule).
  sim::Time eifs_until_{};

  Mac80211Params params_;
  std::optional<net::Packet> tx_frame_;  ///< frame in service

  sim::Timer difs_timer_;
  sim::Timer backoff_timer_;
};

}  // namespace eblnet::mac
