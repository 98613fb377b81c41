#include "mac/mac_tdma.hpp"

#include <stdexcept>

namespace eblnet::mac {

MacTdma::MacTdma(net::Env& env, net::NodeId address, phy::WirelessPhy& phy,
                 std::unique_ptr<net::PacketQueue> ifq, TdmaParams params, unsigned slot_index)
    : MacBase{env, address, phy, std::move(ifq)},
      params_{params},
      slot_index_{slot_index},
      slot_timer_{env.scheduler(), [this] { on_slot_start(); }} {
  if (slot_index >= params.num_slots)
    throw std::invalid_argument{"MacTdma: slot index out of range"};
  if (!(params.data_rate_bps > 0.0))
    throw std::invalid_argument{"MacTdma: data_rate_bps must be > 0"};
  phy_.set_rx_end_callback([this](net::Packet&& p, bool ok) { on_rx_end(std::move(p), ok); });
  schedule_next_slot();
}

void MacTdma::enqueue(net::Packet p) {
  if (!p.mac) p.mac.emplace();
  p.mac->src = address_;
  if (p.size_bytes() > params_.max_packet_bytes) {
    ++oversize_drops_;
    env_.metrics().add(address_, sim::Counter::kTdmaOversizeDrops);
    env_.trace(net::TraceAction::kDrop, net::TraceLayer::kMac, address_, p, "SIZE");
    return;
  }
  ifq_->enqueue(std::move(p));
}

void MacTdma::schedule_next_slot() {
  const sim::Time frame = params_.frame_duration();
  const sim::Time offset = params_.slot_duration() * static_cast<std::int64_t>(slot_index_);
  const sim::Time now = env_.now();
  // First frame boundary at or after `now - offset`, then add the offset.
  const std::int64_t frames_elapsed = (now - offset).ns() <= 0 ? 0 : ((now - offset) / frame) + 1;
  sim::Time next = offset + frame * frames_elapsed;
  if (next <= now) next += frame;
  slot_timer_.schedule_at(next);
}

void MacTdma::set_link_up(bool up) {
  if (up == link_up()) return;
  MacBase::set_link_up(up);
  if (up) {
    schedule_next_slot();
  } else {
    slot_timer_.cancel();
  }
}

void MacTdma::on_slot_start() {
  schedule_next_slot();
  auto p = ifq_->dequeue();
  if (!p) {
    env_.metrics().add(address_, sim::Counter::kTdmaSlotsIdle);
    return;
  }
  const sim::Time air =
      airtime(p->size_bytes() + params_.data_header_bytes, params_.data_rate_bps,
              params_.plcp_overhead);
  env_.trace(net::TraceAction::kSend, net::TraceLayer::kMac, address_, *p);
  ++tx_data_;
  env_.metrics().add(address_, sim::Counter::kTdmaSlotsUsed);
  env_.metrics().add(address_, sim::Counter::kMacTxData);
  phy_.transmit(std::move(*p), air);
}

void MacTdma::on_rx_end(net::Packet&& p, bool ok) {
  if (!ok || !p.mac) return;
  if (p.type == net::PacketType::kNoise) return;  // jammer energy, not a frame
  if (p.mac->dst != address_ && p.mac->dst != net::kBroadcastAddress) return;
  p.prev_hop = p.mac->src;
  env_.trace(net::TraceAction::kRecv, net::TraceLayer::kMac, address_, p);
  env_.metrics().add(address_, sim::Counter::kMacRxData);
  deliver_up(std::move(p));
}

}  // namespace eblnet::mac
