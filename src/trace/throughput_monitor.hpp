#pragma once

#include <functional>

#include "net/env.hpp"
#include "sim/timer.hpp"
#include "stats/time_series.hpp"

namespace eblnet::trace {

/// Periodic throughput sampler — the C++ equivalent of the paper's Tcl
/// `record` procedure: every `interval` it reads a cumulative byte
/// counter (e.g. the sum of the platoon's TcpSink::bytes()) and records
/// the delta as Mb/s.
class ThroughputMonitor {
 public:
  using ByteCounter = std::function<std::uint64_t()>;

  ThroughputMonitor(net::Env& env, ByteCounter counter,
                    sim::Time interval = sim::Time::milliseconds(100));

  void start();
  void stop();

  /// (sample time, Mb/s over the preceding interval).
  const stats::TimeSeries& series() const noexcept { return series_; }
  sim::Time interval() const noexcept { return interval_; }

 private:
  void tick();

  ByteCounter counter_;
  sim::Time interval_;
  std::uint64_t last_bytes_{0};
  bool running_{false};
  sim::Scheduler::Lane lane_;  ///< interval_'s lane
  sim::Timer timer_;
  stats::TimeSeries series_;
};

}  // namespace eblnet::trace
