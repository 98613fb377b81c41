#include "transport/udp.hpp"

#include <stdexcept>

namespace eblnet::transport {

UdpAgent::UdpAgent(net::Node& node, net::Port local_port) : node_{node}, local_port_{local_port} {
  node_.bind_port(local_port_, this);
}

UdpAgent::~UdpAgent() { node_.unbind_port(local_port_); }

void UdpAgent::connect(net::NodeId dst, net::Port dport) {
  peer_ = dst;
  peer_port_ = dport;
}

void UdpAgent::send(std::size_t payload_bytes) {
  if (peer_ == net::kBroadcastAddress && peer_port_ == 0)
    throw std::logic_error{"UdpAgent: send() before connect()"};
  net::Packet p;
  p.uid = node_.env().alloc_uid();
  p.type = net::PacketType::kUdpData;
  p.payload_bytes = payload_bytes;
  p.created = node_.env().now();
  p.app_seq = next_seq_++;
  p.ip.emplace();
  p.ip->src = node_.id();
  p.ip->dst = peer_;
  p.udp.emplace();
  p.udp->sport = local_port_;
  p.udp->dport = peer_port_;
  ++packets_sent_;
  node_.env().trace(net::TraceAction::kSend, net::TraceLayer::kAgent, node_.id(), p);
  node_.send(std::move(p));
}

void UdpAgent::recv(net::Packet&& p) {
  ++packets_received_;
  bytes_received_ += p.payload_bytes;
  node_.env().trace(net::TraceAction::kRecv, net::TraceLayer::kAgent, node_.id(), p);
  if (recv_cb_) recv_cb_(p);
}

}  // namespace eblnet::transport
