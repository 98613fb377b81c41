// Offline trace analysis — the paper's exact workflow ("the one-way delay
// and max delay were computed offline by parsing the trace file") as a
// standalone tool. Feed it a .tr file produced by trace::write_trace and
// it reports per-flow one-way delay statistics and drop accounting.
//
// Usage: trace_analysis <trace-file>
//        (run `ebl_intersection` first: it writes
//        results/ebl_intersection.tr)

#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>

#include "core/report.hpp"
#include "trace/delay_analyzer.hpp"
#include "trace/trace_io.hpp"

using namespace eblnet;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <trace-file>\n";
    return 1;
  }
  std::ifstream in{argv[1]};
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 1;
  }

  trace::TraceStore records;
  try {
    records = trace::parse_trace(in);
  } catch (const std::exception& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 1;
  }

  std::cout << records.size() << " trace records\n";
  const trace::DelayAnalyzer delays{records};

  // Group matched samples by flow and print a summary per flow.
  std::map<std::pair<net::NodeId, net::NodeId>, stats::Summary> flows;
  for (const auto& s : delays.all()) {
    flows[{s.src, s.dst}].add(s.delay_seconds());
  }
  const core::report::ReportContext ctx{std::cout, 4, "s"};
  core::report::print_header(ctx, "One-way delay per flow");
  for (const auto& [flow, summary] : flows) {
    core::report::print_summary_row(
        ctx, "flow " + std::to_string(flow.first) + " -> " + std::to_string(flow.second), summary);
  }
  std::cout << "unmatched sends (lost or in flight at trace end): "
            << delays.unmatched_sends() << "\n";

  // Drop accounting by layer/reason.
  std::map<std::string, std::size_t> drops;
  for (const auto& r : records) {
    if (r.action == net::TraceAction::kDrop) {
      std::string key{net::to_string(r.layer)};
      key += '/';
      if (r.reason.empty()) {
        key += '-';
      } else {
        key += r.reason;
      }
      ++drops[key];
    }
  }
  core::report::print_header(ctx, "Drops by layer/reason");
  if (drops.empty()) std::cout << "(none)\n";
  for (const auto& [key, n] : drops) {
    std::cout << std::left << std::setw(16) << key << n << '\n';
  }
  return 0;
}
