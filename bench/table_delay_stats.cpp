// Reproduces the per-vehicle one-way-delay statistics the paper reports
// in the text of §III.B–§III.D: average / minimum / maximum one-way delay
// for the middle and trailing vehicle of each platoon, for all three
// trials, plus the transient/steady-state split visible in Figs. 5–14.

#include <iomanip>
#include <iostream>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/trial.hpp"
#include "stats/histogram.hpp"

using namespace eblnet;
using core::report::print_header;
using core::report::print_summary_row;
using core::report::ReportContext;

namespace {

void print_percentiles(std::ostream& os, const std::vector<trace::DelaySample>& samples,
                       const char* label) {
  if (samples.empty()) return;
  stats::Histogram h{0.0, 4.0, 4000};
  for (const auto& s : samples) h.add(s.delay_seconds());
  os << "  " << label << " percentiles: p50=" << std::fixed << std::setprecision(4)
     << h.quantile(0.5) << " s  p95=" << h.quantile(0.95) << " s  p99=" << h.quantile(0.99)
     << " s\n";
}

void print_trial(const ReportContext& ctx, const core::TrialResult& r) {
  print_header(ctx, "One-way delay statistics — " + r.name + "  (" +
                        std::to_string(r.config.packet_bytes) + " B, " +
                        core::to_string(r.config.mac) + ")");
  print_summary_row(ctx, "platoon 1 / middle vehicle",
                    trace::DelayAnalyzer::summarize(r.p1_middle));
  print_summary_row(ctx, "platoon 1 / trailing vehicle",
                    trace::DelayAnalyzer::summarize(r.p1_trailing));
  print_summary_row(ctx, "platoon 2 / middle vehicle",
                    trace::DelayAnalyzer::summarize(r.p2_middle));
  print_summary_row(ctx, "platoon 2 / trailing vehicle",
                    trace::DelayAnalyzer::summarize(r.p2_trailing));
  print_percentiles(ctx.os, r.p1_all(), "platoon 1");
  print_percentiles(ctx.os, r.p2_all(), "platoon 2");
  ctx.os << "platoon 1 steady-state delay (packets >= 50): " << r.p1_steady_state_delay_s()
         << " s\n";
  ctx.os << "platoon 1 transient length (MSER-5): " << r.p1_transient_end_mser()
         << " packets (paper: \"approximately packet 50\")\n";
  ctx.os << "platoon 1 initial-packet delay: " << r.p1_initial_packet_delay_s << " s\n";
  ctx.os << "drops: ifq=" << r.ifq_drops << " phy_collisions=" << r.phy_collisions
         << " mac_retry=" << r.mac_retry_drops << "\n";
  ctx.os << "frames radiated: data=" << r.data_frame_sends
         << " routing_control=" << r.routing_control_sends << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::Options::parse(argc, argv);
  const core::TrialSpec specs[] = {opts.spec(core::trial1_config(), "Trial 1"),
                                   opts.spec(core::trial2_config(), "Trial 2"),
                                   opts.spec(core::trial3_config(), "Trial 3")};
  const std::vector<core::TrialResult> runs = bench::run(specs, opts);

  const ReportContext ctx{opts.out(), 4, "s"};
  for (const auto& r : runs) print_trial(ctx, r);

  bench::write_manifest(
      opts, [&](auto& f) { core::report::write_sweep_json(f, "table_delay_stats", runs); });
  return 0;
}
