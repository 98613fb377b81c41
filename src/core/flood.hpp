#pragma once

#include <functional>
#include <unordered_set>

#include "net/env.hpp"
#include "net/node.hpp"
#include "sim/timer.hpp"

namespace eblnet::core {

/// Flooding parameters.
struct FloodParams {
  std::uint8_t hop_limit{8};
  /// Random delay before rebroadcasting, to de-synchronise neighbours
  /// (the classic broadcast-storm mitigation).
  sim::Time rebroadcast_jitter{sim::Time::milliseconds(5)};
  std::size_t payload_bytes{100};
};

/// Multi-hop safety-warning dissemination: each node rebroadcasts every
/// warning it has not seen before (bounded by the hop limit), so a brake
/// warning reaches far beyond a single radio hop — the paper's
/// "extend the range of brake lights" taken past one hop, and the classic
/// VANET message-flooding primitive its future work points toward.
///
/// Warnings ride in UDP broadcast datagrams: the warning id travels in
/// Packet::app_seq and the remaining hop budget in the IP TTL, so no new
/// header type is needed.
class WarningFlood final : public net::PortHandler {
 public:
  WarningFlood(net::Env& env, net::Node& node, net::Port port, FloodParams params = {});
  ~WarningFlood() override;

  WarningFlood(const WarningFlood&) = delete;
  WarningFlood& operator=(const WarningFlood&) = delete;

  /// Originate a new warning; the id must be network-unique (callers
  /// typically combine node id and a local counter).
  void originate(std::uint64_t warning_id);

  /// Called once per distinct warning (never for our own), with the hop
  /// count it arrived over.
  using WarningCallback = std::function<void(std::uint64_t warning_id, unsigned hops)>;
  void set_on_warning(WarningCallback cb) { on_warning_ = std::move(cb); }

  void recv(net::Packet&& p) override;

  std::uint64_t warnings_received() const noexcept { return received_; }
  std::uint64_t rebroadcasts() const noexcept { return rebroadcasts_; }
  std::uint64_t duplicates_suppressed() const noexcept { return dups_; }

 private:
  void broadcast(std::uint64_t warning_id, std::uint8_t ttl);

  net::Env& env_;
  net::Node& node_;
  net::Port port_;
  FloodParams params_;
  std::unordered_set<std::uint64_t> seen_;
  WarningCallback on_warning_;
  std::uint64_t received_{0};
  std::uint64_t rebroadcasts_{0};
  std::uint64_t dups_{0};
};

}  // namespace eblnet::core
