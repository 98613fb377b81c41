#include "trace/delay_analyzer.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace eblnet::trace {
namespace {

bool is_data(net::PacketType t) noexcept {
  return t == net::PacketType::kTcpData || t == net::PacketType::kUdpData;
}

using FlowSeq = std::tuple<net::NodeId, net::NodeId, std::uint64_t>;

}  // namespace

DelayAnalyzer::DelayAnalyzer(const TraceStore& records) {
  struct Pending {
    sim::Time sent{};
    bool have_sent{false};
    sim::Time received{};
    bool have_received{false};
  };
  std::map<FlowSeq, Pending> pending;

  for (const auto& r : records) {
    if (r.layer != net::TraceLayer::kAgent || !is_data(r.type)) continue;
    const FlowSeq key{r.ip_src, r.ip_dst, r.app_seq};
    Pending& p = pending[key];
    if (r.action == net::TraceAction::kSend && r.node == r.ip_src && !p.have_sent) {
      p.sent = r.t;
      p.have_sent = true;
    } else if (r.action == net::TraceAction::kRecv && r.node == r.ip_dst && !p.have_received) {
      p.received = r.t;
      p.have_received = true;
    }
  }

  offered_.reserve(pending.size());
  samples_.reserve(pending.size());
  for (const auto& [key, p] : pending) {
    if (!p.have_sent) continue;
    offered_.push_back(OfferedPacket{p.sent, p.have_received});
    if (p.have_received) {
      samples_.push_back(DelaySample{std::get<0>(key), std::get<1>(key), std::get<2>(key),
                                     p.sent, p.received});
    }
  }
  // std::map iteration already yields (src, dst, seq) order.
}

std::vector<DelaySample> DelayAnalyzer::flow(net::NodeId src, net::NodeId dst) const {
  std::vector<DelaySample> out;
  for (const auto& s : samples_) {
    if (s.src == src && s.dst == dst) out.push_back(s);
  }
  return out;
}

stats::Summary DelayAnalyzer::summarize(const std::vector<DelaySample>& samples) {
  stats::Summary s;
  for (const auto& d : samples) s.add(d.delay_seconds());
  return s;
}

double DelayAnalyzer::initial_packet_delay_seconds(const std::vector<DelaySample>& samples) {
  const auto it = std::min_element(samples.begin(), samples.end(),
                                   [](const auto& a, const auto& b) { return a.seq < b.seq; });
  return it == samples.end() ? -1.0 : it->delay_seconds();
}

}  // namespace eblnet::trace
