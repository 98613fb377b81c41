#pragma once

#include <vector>

#include "net/trace_sink.hpp"
#include "stats/summary.hpp"
#include "trace/trace_store.hpp"

namespace eblnet::trace {

/// One matched data packet: first agent-level send at the source paired
/// with the first agent-level receive at the destination.
struct DelaySample {
  net::NodeId src{};
  net::NodeId dst{};
  std::uint64_t seq{};  ///< per-flow packet id (the figures' x axis)
  sim::Time sent{};
  sim::Time received{};

  double delay_seconds() const noexcept { return (received - sent).to_seconds(); }
};

/// One offered data packet: its first agent-level send at its source, and
/// whether the agent layer of its destination received it.
struct OfferedPacket {
  sim::Time sent{};
  bool delivered{false};
};

/// Offline one-way-delay analysis of a trace — the computation the paper
/// performs "offline by parsing the trace file". Matching key is
/// (ip_src, ip_dst, app_seq) over data packets (TCP/UDP payloads), so
/// MAC retransmissions and forwarding do not produce duplicates. A packet
/// is offered once its source's agent sends it, and delivered once its
/// destination's agent receives it.
class DelayAnalyzer {
 public:
  explicit DelayAnalyzer(const TraceStore& records);

  /// Samples for one flow, ordered by packet id.
  std::vector<DelaySample> flow(net::NodeId src, net::NodeId dst) const;

  /// Every matched sample (the delivered packets), in (src, dst, seq)
  /// order.
  const std::vector<DelaySample>& all() const noexcept { return samples_; }

  /// Every offered packet, in (src, dst, seq) order.
  const std::vector<OfferedPacket>& offered() const noexcept { return offered_; }

  /// Packets sent but never received (lost or still in flight at the end).
  std::uint64_t unmatched_sends() const noexcept { return offered_.size() - samples_.size(); }

  static stats::Summary summarize(const std::vector<DelaySample>& samples);

  /// Delay of the first packet of the flow (the paper's stopping-distance
  /// analysis uses the initial packet's delay). Returns a negative value
  /// when the flow is empty.
  static double initial_packet_delay_seconds(const std::vector<DelaySample>& samples);

 private:
  std::vector<DelaySample> samples_;
  std::vector<OfferedPacket> offered_;
};

}  // namespace eblnet::trace
