#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval recorded by the benchmark around a call into a
/// layer. Spans form a tree through `parent` (0 = root); every span of one
/// scenario carries that scenario's id. `wait_s` is set on runner trial
/// spans only: the time the trial sat in the runner queue before a worker
/// picked it up.
struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint64_t scenario{0};
  std::string name;
  double start_s{0.0};  ///< since the tracer was created
  double end_s{0.0};
  double wait_s{0.0};
};

/// In-memory span store, written out once when the benchmark ends. A
/// disabled tracer records nothing and hands out id 0; the timing itself
/// is done by Phase, which callers need whether or not spans are kept.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  bool enabled() const noexcept { return enabled_; }
  Clock::time_point epoch() const noexcept { return epoch_; }

  /// Reserve an id for a span that starts now (0 when disabled).
  std::uint64_t open();
  /// Store a finished span under the id `open()` returned.
  void close(Span span);

  /// One JSON object per line: id, parent, scenario, name, start, end, wait.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_;
  Clock::time_point epoch_{Clock::now()};
  mutable std::mutex mu_;
  std::uint64_t next_id_{1};
  std::vector<Span> spans_;
};

/// Times one phase with steady_clock and, when the tracer is enabled,
/// records it as a span. Usage: `Phase p{tracer, "run", parent, id};
/// ...; const double s = p.stop();`
class Phase {
 public:
  Phase(Tracer& tracer, std::string name, std::uint64_t parent, std::uint64_t scenario,
        double wait_s = 0.0);
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  /// End the phase (idempotent) and return its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t scenario_;
  double wait_s_;
  Clock::time_point start_{Clock::now()};
  bool stopped_{false};
  double duration_s_{0.0};
};

}  // namespace perfbench
