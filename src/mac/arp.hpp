#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "mac/mac_base.hpp"
#include "net/env.hpp"
#include "net/layers.hpp"
#include "sim/timer.hpp"

namespace eblnet::mac {

/// ARP parameters (NS-2 LL/ARP flavoured).
struct ArpParams {
  /// Re-request interval while unresolved.
  sim::Time retry_interval{sim::Time::milliseconds(100)};
  unsigned max_retries{3};
  std::size_t request_bytes{28};
  std::size_t reply_bytes{28};
  /// NS-2's ARP holds exactly one packet per unresolved destination; a
  /// newer arrival displaces (drops) the held one.
  std::size_t hold_per_destination{1};
  /// Learn reachability from any overheard frame (an improvement over
  /// NS-2, whose ARP only learns from ARP replies). Disable to reproduce
  /// the NS-2 behaviour where even a node we just heard from must be
  /// resolved explicitly.
  bool passive_learning{true};
};

/// Address-resolution link layer, as a decorator over any MacLayer —
/// reproducing the LL/ARP stage of the NS-2 wireless stack the paper's
/// simulations ran through. With flat simulator addressing, resolution is
/// an identity map; what ARP contributes (and what this class models) is
/// the request/reply round trip and held-packet behaviour on the *first*
/// unicast to each neighbour, which inflates exactly the initial-packet
/// delay the paper's safety analysis hinges on. Off by default;
/// ScenarioConfig::use_arp enables it (see bench/ablation_arp).
class ArpLayer final : public net::MacLayer {
 public:
  ArpLayer(net::Env& env, std::unique_ptr<net::MacLayer> inner, ArpParams params = {});

  void enqueue(net::Packet p) override;
  void set_rx_callback(RxCallback cb) override { rx_cb_ = std::move(cb); }
  void set_tx_fail_callback(TxFailCallback cb) override;
  net::NodeId address() const override { return inner_->address(); }
  bool detects_link_failures() const override { return inner_->detects_link_failures(); }
  std::vector<net::Packet> flush_next_hop(net::NodeId next_hop) override;
  const net::PacketQueue* interface_queue() const noexcept override {
    return inner_->interface_queue();
  }
  /// Crash: forget the ARP cache and every held packet (a rebooted node
  /// re-resolves), then cascade into the wrapped MAC.
  void set_link_up(bool up) override {
    if (!up) {
      resolved_.clear();
      pending_.clear();
    }
    inner_->set_link_up(up);
  }

  // --- introspection ---
  bool is_resolved(net::NodeId dst) const { return resolved_.contains(dst); }
  std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  std::uint64_t replies_sent() const noexcept { return replies_sent_; }
  std::uint64_t held_drops() const noexcept { return held_drops_; }

 private:
  struct Pending {
    std::deque<net::Packet> held;
    unsigned retries{0};
    std::unique_ptr<sim::Timer> timer;
  };

  void on_rx(net::Packet&& p);
  void send_request(net::NodeId dst);
  void on_retry_timeout(net::NodeId dst);
  net::Packet make_arp(net::PacketType type, net::NodeId dst);

  net::Env& env_;
  std::unique_ptr<net::MacLayer> inner_;
  ArpParams params_;
  std::unordered_set<net::NodeId> resolved_;
  std::unordered_map<net::NodeId, Pending> pending_;
  RxCallback rx_cb_;
  std::uint64_t requests_sent_{0};
  std::uint64_t replies_sent_{0};
  std::uint64_t held_drops_{0};
};

}  // namespace eblnet::mac
