#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "sim/time.hpp"

namespace eblnet::net {

/// Flat node addressing, NS-2 style: a node's network address, MAC
/// address and node id are the same small integer.
using NodeId = std::uint32_t;
inline constexpr NodeId kBroadcastAddress = 0xffff'ffff;

using Port = std::uint16_t;

enum class PacketType : std::uint8_t {
  kUdpData,
  kTcpData,
  kTcpAck,
  kAodvRreq,
  kAodvRrep,
  kAodvRerr,
  kAodvHello,
  kDsdvUpdate,
  kArpRequest,
  kArpReply,
  kMacAck,
  kMacRts,
  kMacCts,
  kNoise,   ///< jammer emissions: pure channel energy, never delivered up
  kBeacon,  ///< periodic CAM/BSM broadcast (single-hop, never routed)
};

const char* to_string(PacketType t) noexcept;

/// Routing-control packets get priority in the interface queue
/// (NS-2's Queue/DropTail/PriQueue behaviour the paper configures).
constexpr bool is_routing_control(PacketType t) noexcept {
  return t == PacketType::kAodvRreq || t == PacketType::kAodvRrep ||
         t == PacketType::kAodvRerr || t == PacketType::kAodvHello ||
         t == PacketType::kDsdvUpdate;
}

constexpr bool is_mac_control(PacketType t) noexcept {
  return t == PacketType::kMacAck || t == PacketType::kMacRts || t == PacketType::kMacCts;
}

// ---------------------------------------------------------------------------
// Headers. All protocol headers live here (as in NS-2's packet header
// manager) so that any layer can inspect a packet without depending on the
// module that produced it. Sizes are accounted in Packet::size_bytes().
// ---------------------------------------------------------------------------

struct MacHeader {
  NodeId src{kBroadcastAddress};
  NodeId dst{kBroadcastAddress};
  /// NAV reservation carried by RTS/CTS/data frames (802.11 duration field).
  sim::Time duration{};
  /// Retry flag (set on MAC-level retransmissions).
  bool retry{false};
};

struct Ipv4Header {
  NodeId src{kBroadcastAddress};
  NodeId dst{kBroadcastAddress};
  std::uint8_t ttl{32};
  static constexpr std::size_t kBytes = 20;
};

struct UdpHeader {
  Port sport{0};
  Port dport{0};
  static constexpr std::size_t kBytes = 8;
};

struct TcpHeader {
  Port sport{0};
  Port dport{0};
  /// Packet-based sequence number (NS-2 one-way TCP counts packets).
  std::int64_t seq{0};
  /// Cumulative ACK: highest in-order packet received (-1 = none).
  std::int64_t ack{-1};
  /// Echo of the data packet's send timestamp, for RTT sampling.
  sim::Time ts{};
  static constexpr std::size_t kBytes = 20;
};

struct AodvRreqHeader {
  std::uint8_t hop_count{0};
  std::uint32_t bcast_id{0};
  NodeId dst{kBroadcastAddress};
  std::uint32_t dst_seqno{0};
  bool dst_seqno_unknown{true};
  NodeId origin{kBroadcastAddress};
  std::uint32_t origin_seqno{0};
  static constexpr std::size_t kBytes = 24;
};

struct AodvRrepHeader {
  std::uint8_t hop_count{0};
  NodeId dst{kBroadcastAddress};  ///< route destination the RREP answers for
  std::uint32_t dst_seqno{0};
  NodeId origin{kBroadcastAddress};  ///< the RREQ originator this replies to
  sim::Time lifetime{};
  static constexpr std::size_t kBytes = 20;
};

struct AodvRerrHeader {
  struct Unreachable {
    NodeId dst;
    std::uint32_t seqno;
  };
  std::vector<Unreachable> unreachable;
  std::size_t bytes() const noexcept { return 12 + 8 * unreachable.size(); }
};

struct AodvHelloHeader {
  NodeId src{kBroadcastAddress};
  std::uint32_t seqno{0};
  static constexpr std::size_t kBytes = 20;
};

using AodvHeader = std::variant<AodvRreqHeader, AodvRrepHeader, AodvRerrHeader, AodvHelloHeader>;

/// DSDV routing update: a (possibly partial) table dump.
struct DsdvUpdateHeader {
  struct Route {
    NodeId dst;
    std::uint32_t seqno;
    std::uint16_t metric;
  };
  std::vector<Route> routes;
  std::size_t bytes() const noexcept { return 8 + 12 * routes.size(); }
};

// ---------------------------------------------------------------------------

/// A simulated packet. Value type: copies are independent (each radio
/// that decodes a broadcast keeps its own copy).
class Packet {
 public:
  /// Globally unique per simulation (allocated by net::Env).
  std::uint64_t uid{0};
  PacketType type{PacketType::kUdpData};

  /// Application payload size; headers are accounted separately.
  std::size_t payload_bytes{0};

  /// Application-level birth time — survives forwarding and MAC
  /// retransmission, so sink-side `now - created` is the one-way delay.
  sim::Time created{};

  /// Per-flow application packet id (the "packet ID" of the paper's
  /// delay figures).
  std::uint64_t app_seq{0};

  /// Filled by the receiving MAC: who physically handed us this packet.
  NodeId prev_hop{kBroadcastAddress};

  /// 802.1D user priority (0-7). Only the EDCA MAC reads it, to map the
  /// frame onto an access category; the DCF and TDMA MACs ignore it.
  std::uint8_t priority{0};

  std::optional<MacHeader> mac;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<AodvHeader> aodv;
  std::optional<DsdvUpdateHeader> dsdv;

  /// Total on-air size: payload plus every attached header.
  /// The 802.11 data MAC overhead (34 B) is added by the MAC when
  /// computing airtime, not here, so queue byte-limits match NS-2.
  std::size_t size_bytes() const noexcept;
};

}  // namespace eblnet::net
