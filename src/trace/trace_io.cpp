#include "trace/trace_io.hpp"

#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace eblnet::trace {
namespace {

[[noreturn]] void fail(const char* what, std::size_t line) {
  throw std::runtime_error{std::string{"trace parse: bad "} + what + " at line " +
                           std::to_string(line)};
}

/// The whole of `s` as an unsigned decimal no larger than `max`: no sign,
/// no blanks, no overflow.
std::uint64_t parse_decimal(std::string_view s, std::uint64_t max, const char* what,
                            std::size_t line) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max) fail(what, line);
  return v;
}

/// `[-]<seconds>.<nine digits>`, exactly the form Time::to_string writes,
/// read without going through floating point.
sim::Time parse_time(std::string_view s, std::size_t line) {
  constexpr std::uint64_t kNsPerS = 1'000'000'000;
  constexpr std::uint64_t kMaxNs = INT64_MAX;
  const bool negative = s.starts_with('-');
  if (negative) s.remove_prefix(1);
  const std::size_t dot = s.find('.');
  if (dot == std::string_view::npos || s.size() - dot - 1 != 9) fail("time", line);
  const std::uint64_t ns = parse_decimal(s.substr(0, dot), kMaxNs / kNsPerS, "time", line) *
                               kNsPerS +
                           parse_decimal(s.substr(dot + 1), kNsPerS - 1, "time", line);
  if (ns > kMaxNs) fail("time", line);
  const auto v = static_cast<std::int64_t>(ns);
  return sim::Time::nanoseconds(negative ? -v : v);
}

net::TraceAction parse_action(const std::string& s, std::size_t line) {
  if (s == "s") return net::TraceAction::kSend;
  if (s == "r") return net::TraceAction::kRecv;
  if (s == "D") return net::TraceAction::kDrop;
  if (s == "f") return net::TraceAction::kForward;
  fail("action", line);
}

net::TraceLayer parse_layer(const std::string& s, std::size_t line) {
  if (s == "AGT") return net::TraceLayer::kAgent;
  if (s == "RTR") return net::TraceLayer::kRouter;
  if (s == "IFQ") return net::TraceLayer::kIfq;
  if (s == "MAC") return net::TraceLayer::kMac;
  if (s == "PHY") return net::TraceLayer::kPhy;
  fail("layer", line);
}

net::PacketType parse_type(const std::string& s, std::size_t line) {
  // PacketType's values run densely from 0, and net::to_string names any
  // value past the last one "?", so this tries every type by the name the
  // writer gives it.
  for (std::uint8_t i = 0;; ++i) {
    const auto t = static_cast<net::PacketType>(i);
    const std::string_view name = net::to_string(t);
    if (name == "?") break;
    if (s == name) return t;
  }
  fail("packet type", line);
}

std::string addr_to_string(net::NodeId id) {
  return id == net::kBroadcastAddress ? "*" : std::to_string(id);
}

net::NodeId parse_addr(const std::string& s, std::size_t line) {
  if (s == "*") return net::kBroadcastAddress;
  return static_cast<net::NodeId>(parse_decimal(s, UINT32_MAX, "address", line));
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

void write_trace(std::ostream& os, const TraceStore& records) {
  for (const auto& r : records) os << format_record(r) << '\n';
}

TraceStore parse_trace(std::istream& is) {
  TraceStore out;
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
    r.t = parse_time(time_s, line_no);
    if (node_s.size() < 3 || node_s.front() != '_' || node_s.back() != '_')
      fail("node field", line_no);
    r.node = static_cast<net::NodeId>(parse_decimal(
        std::string_view{node_s}.substr(1, node_s.size() - 2), UINT32_MAX, "node field", line_no));
    r.layer = parse_layer(layer, line_no);
    r.uid = parse_decimal(uid_s, UINT64_MAX, "uid", line_no);
    r.type = parse_type(type_s, line_no);
    r.size = parse_decimal(size_s, SIZE_MAX, "size", line_no);
    r.ip_src = parse_addr(src_s, line_no);
    r.ip_dst = parse_addr(dst_s, line_no);
    r.app_seq = parse_decimal(seq_s, UINT64_MAX, "packet id", line_no);
    if (reason != "-") r.reason = intern_reason(reason);
    out.push_back(r);
  }
  return out;
}

}  // namespace eblnet::trace
