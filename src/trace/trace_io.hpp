#pragma once

#include <iosfwd>
#include <string>

#include "net/trace_sink.hpp"
#include "trace/trace_store.hpp"

namespace eblnet::trace {

/// Serialise records in an NS-2-flavoured text format, one event per line:
///
///   s 2.013000000 _0_ AGT 123 tcp 1040 0 2 17 -
///   D 2.144000000 _1_ IFQ 140 tcp 1040 0 2 25 IFQ
///
/// columns: action time _node_ layer uid type size ip_src ip_dst app_seq
/// reason ("-" when empty; broadcast addresses print as "*").
void write_trace(std::ostream& os, const TraceStore& records);

/// One record as a single formatted line (no trailing newline).
std::string format_record(const net::TraceRecord& r);

/// Parse the format produced by write_trace. Times must read as
/// `Time::to_string` writes them (integer seconds, a dot, nine digits),
/// and every count and address must be a decimal that fits its field.
/// Throws std::runtime_error on malformed input (with the offending line
/// number). Reasons are interned in process-lifetime storage, so the
/// returned records' `reason` views stay valid indefinitely.
TraceStore parse_trace(std::istream& is);

}  // namespace eblnet::trace
