#pragma once

#include <optional>

#include "mac/mac_base.hpp"
#include "mac/uid_history.hpp"
#include "sim/timer.hpp"

namespace eblnet::mac {

/// The parameters the 802.11 DCF and EDCA MACs share. The first five
/// depend on the PHY and have no useful default here: Mac80211Params and
/// EdcaParams set them in their default constructors.
struct CsmaTiming {
  double data_rate_bps{};
  double basic_rate_bps{};  ///< control frames and broadcasts
  sim::Time slot_time{};
  sim::Time sifs{};
  sim::Time plcp_overhead{};
  std::size_t data_header_bytes{34};  ///< 802.11 data header + FCS
  std::size_t ack_bytes{14};
  unsigned short_retry_limit{7};  ///< frames sent without RTS protection
  /// Allowance for propagation + rx/tx turnaround in response timeouts.
  sim::Time timeout_slack{sim::Time::microseconds(std::int64_t{15})};
};

/// The 802.11 frame exchange under both CSMA/CA MACs, DCF (Mac80211) and
/// EDCA (Edca): the data send with its retry flag and NAV duration, ACK
/// timeouts and the retry-limit drop, the receive side (duplicate filter
/// with re-ACK, ACK handling, broadcast delivery, NAV from overheard
/// frames), SIFS-spaced responses, and the reset on link down.
///
/// Each engine decides when to transmit and owns the frame in service;
/// the core calls back into it through the hooks below.
class CsmaMac : public MacBase {
 public:
  bool detects_link_failures() const final { return true; }
  void set_link_up(bool up) final;

  // statistics
  std::uint64_t tx_data_count() const noexcept { return tx_data_; }
  std::uint64_t tx_retry_count() const noexcept { return tx_retries_; }
  std::uint64_t tx_drop_count() const noexcept { return tx_drops_; }
  std::uint64_t rx_dup_count() const noexcept { return rx_dups_; }

 protected:
  enum class TxState : std::uint8_t { kIdle, kAccess, kWaitCts, kWaitAck, kBroadcast };

  /// `timing` is the derived class's params member, not yet constructed
  /// here: it is read only from start() on.
  CsmaMac(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
          std::unique_ptr<net::PacketQueue> ifq, const CsmaTiming& timing);

  /// Rejects a non-positive slot time or rate (the message names `mac`)
  /// and only then installs the phy callbacks; the last statement of the
  /// derived constructor.
  void start(const char* mac);

  // --- engine hooks ---
  /// The carrier or the NAV may have changed.
  virtual void medium_changed() = 0;
  /// The frame in service was ACKed, left the air as a broadcast, or was
  /// dropped: release it and contend for the next.
  virtual void finish_frame() = 0;
  /// The awaited CTS or ACK did not come: count the retry and grow the
  /// CW. Returns the frame in service once it is past its retry limit
  /// (the core drops it); otherwise contends again and returns nullptr.
  virtual net::Packet* on_response_timeout() = 0;
  virtual void on_rx_corrupt() = 0;  ///< a frame failed to decode (EIFS)
  virtual void on_rx_clean() = 0;    ///< a frame decoded (ends EIFS)
  /// An RTS or CTS addressed to us; EDCA's OCB profile has no RTS/CTS.
  virtual void handle_rts_cts(const net::Packet&) {}
  /// Link down: cancel the engine's timers and reset its state.
  virtual void stop_access() = 0;

  bool medium_busy() const { return phy_.carrier_busy() || env_.now() < nav_until_; }
  sim::Time data_airtime(const net::Packet& p) const;
  sim::Time ctrl_airtime(std::size_t bytes) const {
    return airtime(bytes, timing_.basic_rate_bps, timing_.plcp_overhead);
  }
  net::Packet make_ctrl(net::PacketType type, net::NodeId dst, sim::Time duration);

  /// The on-air copy of `frame` (retry flag, NAV duration), traced and
  /// counted as a data transmission.
  net::Packet data_copy(const net::Packet& frame, unsigned retries);
  /// Transmits `frame` now; a unicast then waits for its ACK, a
  /// broadcast completes when it leaves the air (never retried).
  void send_data(const net::Packet& frame, unsigned retries);
  /// Enters kWaitAck, timing out if no ACK follows a data frame that
  /// ends `data_end` from now.
  void await_ack(sim::Time data_end);
  /// Transmits `p` (airtime `air`) SIFS from now.
  void schedule_response(net::Packet p, sim::Time air);

  sim::Timer response_timer_;  ///< CTS or ACK timeout
  sim::Time nav_until_{};

 private:
  void on_rx_end(net::Packet&& p, bool ok);
  void handle_data(net::Packet&& p);
  void accept(net::Packet&& p);
  void handle_ack();
  void response_expired();
  void send_scheduled_response();
  void update_nav(sim::Time until);

  const CsmaTiming& timing_;

  sim::Timer nav_timer_;
  sim::Timer response_tx_timer_;
  sim::Timer post_tx_timer_;

  // SIFS-spaced response (ACK, CTS, or DCF's post-CTS data)
  std::optional<net::Packet> pending_response_;
  sim::Time pending_response_airtime_{};

  UidHistory seen_;  ///< duplicate detection

  std::uint64_t tx_data_{0};
  std::uint64_t tx_retries_{0};
  std::uint64_t tx_drops_{0};
  std::uint64_t rx_dups_{0};

 protected:
  /// Declared last so the engines' small members pack into the tail.
  TxState state_{TxState::kIdle};
};

}  // namespace eblnet::mac
