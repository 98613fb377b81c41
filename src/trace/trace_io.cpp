#include "trace/trace_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace eblnet::trace {
namespace {

net::TraceAction parse_action(const std::string& s, std::size_t line) {
  if (s == "s") return net::TraceAction::kSend;
  if (s == "r") return net::TraceAction::kRecv;
  if (s == "D") return net::TraceAction::kDrop;
  if (s == "f") return net::TraceAction::kForward;
  throw std::runtime_error{"trace parse: bad action at line " + std::to_string(line)};
}

net::TraceLayer parse_layer(const std::string& s, std::size_t line) {
  if (s == "AGT") return net::TraceLayer::kAgent;
  if (s == "RTR") return net::TraceLayer::kRouter;
  if (s == "IFQ") return net::TraceLayer::kIfq;
  if (s == "MAC") return net::TraceLayer::kMac;
  if (s == "PHY") return net::TraceLayer::kPhy;
  throw std::runtime_error{"trace parse: bad layer at line " + std::to_string(line)};
}

net::PacketType parse_type(const std::string& s, std::size_t line) {
  using PT = net::PacketType;
  for (const PT t : {PT::kUdpData, PT::kTcpData, PT::kTcpAck, PT::kAodvRreq, PT::kAodvRrep,
                     PT::kAodvRerr, PT::kAodvHello, PT::kDsdvUpdate, PT::kArpRequest, PT::kArpReply, PT::kMacAck, PT::kMacRts,
                     PT::kMacCts, PT::kNoise}) {
    if (s == net::to_string(t)) return t;
  }
  throw std::runtime_error{"trace parse: bad packet type at line " + std::to_string(line)};
}

std::string addr_to_string(net::NodeId id) {
  return id == net::kBroadcastAddress ? "*" : std::to_string(id);
}

net::NodeId parse_addr(const std::string& s, std::size_t line) {
  if (s == "*") return net::kBroadcastAddress;
  try {
    return static_cast<net::NodeId>(std::stoul(s));
  } catch (const std::exception&) {
    throw std::runtime_error{"trace parse: bad address at line " + std::to_string(line)};
  }
}

/// TraceRecord.reason is a non-owning view (live simulations point it at
/// string literals), so parsed reasons need storage that outlives the
/// records: known reasons map to literals, anything else is kept in a
/// process-lifetime set (std::set nodes never move, so the views stay
/// stable as more reasons are added).
std::string_view intern_reason(const std::string& s) {
  for (const char* known : {"IFQ", "RET", "TTL", "COL", "TXB", "ARP", "NRTE", "NOPORT", "SIZE"}) {
    if (s == known) return known;
  }
  static std::set<std::string> extra;
  return *extra.insert(s).first;
}

}  // namespace

std::string format_record(const net::TraceRecord& r) {
  std::string out;
  out.reserve(96);
  out += net::to_string(r.action);
  out += ' ';
  out += r.t.to_string();
  out += " _";
  out += std::to_string(r.node);
  out += "_ ";
  out += net::to_string(r.layer);
  out += ' ';
  out += std::to_string(r.uid);
  out += ' ';
  out += net::to_string(r.type);
  out += ' ';
  out += std::to_string(r.size);
  out += ' ';
  out += addr_to_string(r.ip_src);
  out += ' ';
  out += addr_to_string(r.ip_dst);
  out += ' ';
  out += std::to_string(r.app_seq);
  out += ' ';
  if (r.reason.empty()) {
    out += '-';
  } else {
    out += r.reason;
  }
  return out;
}

void write_trace(std::ostream& os, const std::vector<net::TraceRecord>& records) {
  for (const auto& r : records) os << format_record(r) << '\n';
}

void write_trace(std::ostream& os, const TraceStore& records) {
  for (const auto& r : records) os << format_record(r) << '\n';
}

std::vector<net::TraceRecord> parse_trace(std::istream& is) {
  std::vector<net::TraceRecord> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss{line};
    std::string action, time_s, node_s, layer, uid_s, type_s, size_s, src_s, dst_s, seq_s, reason;
    if (!(ss >> action >> time_s >> node_s >> layer >> uid_s >> type_s >> size_s >> src_s >>
          dst_s >> seq_s >> reason)) {
      throw std::runtime_error{"trace parse: short line " + std::to_string(line_no)};
    }
    net::TraceRecord r;
    r.action = parse_action(action, line_no);
    r.t = sim::Time::seconds(std::stod(time_s));
    if (node_s.size() < 3 || node_s.front() != '_' || node_s.back() != '_')
      throw std::runtime_error{"trace parse: bad node field at line " + std::to_string(line_no)};
    r.node = static_cast<net::NodeId>(std::stoul(node_s.substr(1, node_s.size() - 2)));
    r.layer = parse_layer(layer, line_no);
    r.uid = std::stoull(uid_s);
    r.type = parse_type(type_s, line_no);
    r.size = std::stoull(size_s);
    r.ip_src = parse_addr(src_s, line_no);
    r.ip_dst = parse_addr(dst_s, line_no);
    r.app_seq = std::stoull(seq_s);
    if (reason != "-") r.reason = intern_reason(reason);
    out.push_back(r);
  }
  return out;
}

}  // namespace eblnet::trace
