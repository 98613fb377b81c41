// eblbench — the EBLNet benchmark program (perfbench/run.py builds and
// calls it).
//
// Usage: eblbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//
// Runs a warm-up batch, then a fixed number of timed batches: the count
// timed_batches() gives for the workload and `seconds`, which is about
// `seconds` of host time at the commit that defined the benchmark and
// does not depend on the speed of the code under test. It checks every
// batch's simulated outputs and prints the result as the last line of
// stdout:
//
//   {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics: wall_s and setup_s of the
// fastest batch for each (they may come from different batches), and the
// process's peak RSS. Both take the fastest batch because the benchmark
// runs on shared hosts, where other tenants only ever add time; the
// medians are printed beside them. --trace 1 alternates untraced and
// traced batches (metrics registry on, spans kept) and reports the
// per-layer metrics as medians over the traced batches, plus
// trace.overhead_s (fastest traced wall_s minus fastest untraced wall_s).
// Every batch must reproduce the first batch's fingerprint; a batch that
// does not counts all its scenarios as failed.
// --spans writes the traced batches' spans, one JSON object per line.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Timed batches stop early past this, so a much slower commit still ends
/// inside run.py's time limit (it then reports over fewer batches).
constexpr double kMaxTimedS = 140.0;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "eblbench: " << why
            << "\nusage: eblbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
        continue;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        a.trace = value == "1";
        continue;
      } else if (flag == "--spans") {
        a.spans_path = value;
        continue;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != value.size()) usage("bad value '" + value + "' for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload '" + a.workload + "'");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Batches of one mode (traced or not) and what they produced.
struct Series {
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, std::string> units;
};

struct Totals {
  std::size_t attempted{0};
  std::size_t failed{0};
  bool have_fingerprint{false};
  std::uint64_t fingerprint{0};
};

/// Run one batch and fold its outcome into `series` and `totals`.
void run_batch(const Args& args, bool traced, Tracer& tracer, Series& series, Totals& totals,
               std::uint64_t& batch_index) {
  RunOptions opts;
  opts.seed = args.seed;
  opts.traced = traced;
  opts.scenario_base = 1000 * batch_index++;
  const BatchOutcome out = run_workload(args.workload, opts, tracer);

  totals.attempted += out.attempted;
  std::size_t failed = out.failures.size();
  for (const std::string& f : out.failures) std::cout << "FAILED " << f << '\n';
  if (!totals.have_fingerprint) {
    totals.have_fingerprint = true;
    totals.fingerprint = out.fingerprint;
  } else if (out.fingerprint != totals.fingerprint) {
    std::cout << "FAILED " << (traced ? "traced" : "untraced") << " batch fingerprint " << std::hex
              << out.fingerprint << " != " << totals.fingerprint << std::dec << '\n';
    failed = out.attempted;
  }
  totals.failed += std::min(failed, out.attempted);

  series.wall_s.push_back(out.wall_s);
  series.setup_s.push_back(out.setup_s);
  for (const auto& [name, metric] : out.layers) {
    series.layers[name].push_back(metric.value);
    series.units[name] = metric.unit;
  }
}

void print_metric(std::ostream& os, bool& first, const std::string& name, double value,
                  const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf << ", \"unit\": \"" << unit
     << "\"}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    Tracer untraced{false};
    Tracer tracer{args.trace};
    Totals totals;
    std::uint64_t batch_index = 0;
    Series plain;
    Series traced;
    // One warm-up batch (checked, not timed: it pays the first touch of
    // the heap), then the timed batches. Traced runs alternate untraced
    // and traced batches, so both sides see the same host drift; a pair
    // costs about two batches, so they run half as many pairs.
    Series warmup;
    run_batch(args, false, untraced, warmup, totals, batch_index);
    const std::size_t batches = timed_batches(args.workload, args.seconds);
    const std::size_t rounds = args.trace ? std::max<std::size_t>(2, batches / 2) : batches;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      run_batch(args, false, untraced, plain, totals, batch_index);
      if (args.trace) run_batch(args, true, tracer, traced, totals, batch_index);
      if (i + 1 < rounds && seconds_between(start, Clock::now()) > kMaxTimedS) {
        std::cout << "stopped after " << i + 1 << " of " << rounds << " rounds: over "
                  << kMaxTimedS << " s\n";
        break;
      }
    }

    if (!args.spans_path.empty() && args.trace) {
      std::ofstream spans{args.spans_path};
      tracer.write_jsonl(spans);
      if (!spans) {
        std::cerr << "eblbench: cannot write " << args.spans_path << '\n';
        return 1;
      }
    }

    std::cout << "workload " << args.workload << " seed " << args.seed << ": "
              << "1 warm-up + " << plain.wall_s.size() << " untraced + " << traced.wall_s.size()
              << " traced batches, fingerprint " << std::hex << totals.fingerprint << std::dec
              << ", failed_ratio " << totals.failed << '/' << totals.attempted << '\n';

    for (const Series* s : {&plain, &traced}) {
      if (s->wall_s.empty()) continue;
      std::cout << (s == &plain ? "untraced" : "traced") << " wall_s: fastest "
                << fastest(s->wall_s) << ", median " << median(s->wall_s) << ", all";
      for (const double w : s->wall_s) std::cout << ' ' << w;
      std::cout << '\n';
      std::cout << (s == &plain ? "untraced" : "traced") << " setup_s: fastest "
                << fastest(s->setup_s) << ", median " << median(s->setup_s) << ", all";
      for (const double w : s->setup_s) std::cout << ' ' << w;
      std::cout << '\n';
    }

    std::ostringstream metrics;
    bool first = true;
    if (args.trace) {
      for (const auto& [name, values] : traced.layers)
        print_metric(metrics, first, name, median(values), traced.units[name].c_str());
      print_metric(metrics, first, "trace.overhead_s",
                   fastest(traced.wall_s) - fastest(plain.wall_s), "s");
    } else {
      print_metric(metrics, first, "wall_s", fastest(plain.wall_s), "s");
      print_metric(metrics, first, "setup_s", fastest(plain.setup_s), "s");
      print_metric(metrics, first, "peak_rss_mb", peak_rss_mb(), "MB");
    }
    std::cout << "{\"correct\": " << (totals.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << totals.attempted << ", \"failed\": " << totals.failed
              << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "eblbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
