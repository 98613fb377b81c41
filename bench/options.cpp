#include "bench/options.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string_view>

namespace eblnet::bench {

namespace {

/// Discards everything written to it (the --quiet sink).
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

NullBuffer null_buffer;
std::ostream null_stream{&null_buffer};

[[noreturn]] void usage(const std::string& program, int status) {
  (status == 0 ? std::cout : std::cerr)
      << "usage: " << program << " [options] [full]\n"
      << "  --json <path>   write a JSON run manifest (enables metrics collection)\n"
      << "  --seed <n>      override the scenario seed(s)\n"
      << "  --jobs <n>      worker threads for the trials (0 = auto)\n"
      << "  --quiet         suppress the text report\n"
      << "  --help          this message\n"
      << "  full            full mode (perf_scale, traffic_sweep)\n";
  std::exit(status);
}

/// `text` as a decimal integer in [0, max]. strtoull alone would accept
/// a sign (negating "-1" into 2^64 - 1) and saturate on overflow, so the
/// first character must be a digit and ERANGE is an error.
std::uint64_t parse_u64(const std::string& program, std::string_view flag, const char* text,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      v > max) {
    std::cerr << program << ": " << flag << " expects a non-negative integer, got '" << text
              << "'\n";
    usage(program, 2);
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

Options Options::parse(int argc, char** argv) {
  Options opt;
  opt.program = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&](std::string_view flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << opt.program << ": " << flag << " requires an argument\n";
        usage(opt.program, 2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json_path = next(arg);
    } else if (arg == "--seed") {
      opt.seed = parse_u64(opt.program, arg, next(arg));
      opt.seed_set = true;
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<unsigned>(
          parse_u64(opt.program, arg, next(arg), std::numeric_limits<unsigned>::max()));
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(opt.program, 0);
    } else if (arg == "full") {
      opt.full = true;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::cerr << opt.program << ": unknown flag " << arg << '\n';
      usage(opt.program, 2);
    } else {
      std::cerr << opt.program << ": unexpected argument '" << arg << "'\n";
      usage(opt.program, 2);
    }
  }
  // Fail before the run, not after it: a bench writes its manifest only
  // once every trial has finished.
  if (opt.want_json()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "a");
    if (f == nullptr) {
      std::cerr << opt.program << ": --json " << opt.json_path << ": " << std::strerror(errno)
                << '\n';
      std::exit(2);
    }
    std::fclose(f);
  }
  return opt;
}

std::ostream& Options::out() const { return quiet ? null_stream : std::cout; }

std::vector<core::TrialResult> run(std::span<const core::TrialSpec> specs, const Options& opts) {
  return core::Runner{opts.jobs}.run_trials(specs);
}

void write_manifest(const Options& opts, const std::function<void(std::ostream&)>& write) {
  if (!opts.want_json()) return;
  std::ofstream os{opts.json_path};
  write(os);
  os.close();  // the final flush: a small manifest fails only here on a full disk
  if (os) return;
  std::cerr << opts.program << ": --json " << opts.json_path << ": write failed\n";
  std::exit(1);
}

}  // namespace eblnet::bench
