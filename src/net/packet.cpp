#include "net/packet.hpp"

namespace eblnet::net {

const char* to_string(PacketType t) noexcept {
  switch (t) {
    case PacketType::kUdpData: return "cbr";
    case PacketType::kTcpData: return "tcp";
    case PacketType::kTcpAck: return "ack";
    case PacketType::kAodvRreq: return "AODV_RREQ";
    case PacketType::kAodvRrep: return "AODV_RREP";
    case PacketType::kAodvRerr: return "AODV_RERR";
    case PacketType::kAodvHello: return "AODV_HELLO";
    case PacketType::kDsdvUpdate: return "DSDV";
    case PacketType::kArpRequest: return "ARP_REQ";
    case PacketType::kArpReply: return "ARP_REP";
    case PacketType::kMacAck: return "MAC_ACK";
    case PacketType::kMacRts: return "MAC_RTS";
    case PacketType::kMacCts: return "MAC_CTS";
    case PacketType::kNoise: return "NOISE";
    case PacketType::kBeacon: return "BEACON";
  }
  return "?";
}

std::size_t Packet::size_bytes() const noexcept {
  std::size_t n = payload_bytes;
  if (ip) n += Ipv4Header::kBytes;
  if (udp) n += UdpHeader::kBytes;
  if (tcp) n += TcpHeader::kBytes;
  if (dsdv) n += dsdv->bytes();
  if (aodv) {
    n += std::visit(
        [](const auto& h) -> std::size_t {
          using T = std::decay_t<decltype(h)>;
          if constexpr (std::is_same_v<T, AodvRerrHeader>) {
            return h.bytes();
          } else {
            return T::kBytes;
          }
        },
        *aodv);
  }
  return n;
}

}  // namespace eblnet::net
