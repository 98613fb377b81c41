#pragma once

#include <memory>

#include "net/env.hpp"
#include "net/layers.hpp"
#include "phy/wireless_phy.hpp"

namespace eblnet::mac {

/// Shared plumbing for concrete MACs: owns the interface queue, holds the
/// phy and the upward/failure callbacks, traces ifq drops, and converts
/// frame sizes to airtime.
class MacBase : public net::MacLayer {
 public:
  MacBase(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
          std::unique_ptr<net::PacketQueue> ifq);

  net::NodeId address() const final { return address_; }

  void set_rx_callback(RxCallback cb) final { rx_cb_ = std::move(cb); }
  void set_tx_fail_callback(TxFailCallback cb) final { tx_fail_cb_ = std::move(cb); }

  /// Overridable (not final): the EDCA MAC also sweeps its internal
  /// per-access-category queues, which live outside `ifq_`.
  std::vector<net::Packet> flush_next_hop(net::NodeId next_hop) override {
    return ifq_->remove_by_next_hop(next_hop);
  }

  /// Crash/reboot plumbing shared by the concrete MACs: going down drains
  /// the interface queue (tracing each packet as a "FLT" ifq drop);
  /// subclasses cancel their timers / reset protocol state on top.
  void set_link_up(bool up) override;
  bool link_up() const noexcept { return link_up_; }

  const net::PacketQueue& ifq() const noexcept { return *ifq_; }
  const net::PacketQueue* interface_queue() const noexcept final { return ifq_.get(); }

 protected:
  /// Airtime of `bytes` at `rate_bps` plus the PLCP preamble overhead.
  static sim::Time airtime(std::size_t bytes, double rate_bps, sim::Time plcp_overhead) {
    return plcp_overhead + sim::Time::seconds(static_cast<double>(bytes) * 8.0 / rate_bps);
  }

  void deliver_up(net::Packet&& p) {
    if (rx_cb_) rx_cb_(std::move(p));
  }
  void report_tx_fail(const net::Packet& p) {
    if (tx_fail_cb_) tx_fail_cb_(p);
  }

  net::Env& env_;
  net::NodeId address_;
  phy::WirelessPhy& phy_;
  std::unique_ptr<net::PacketQueue> ifq_;

 private:
  RxCallback rx_cb_;
  TxFailCallback tx_fail_cb_;
  bool link_up_{true};
};

}  // namespace eblnet::mac
