#include "trace/throughput_monitor.hpp"

#include <stdexcept>

namespace eblnet::trace {

ThroughputMonitor::ThroughputMonitor(net::Env& env, ByteCounter counter, sim::Time interval)
    : counter_{std::move(counter)},
      interval_{interval},
      timer_{env.scheduler(), [this] { tick(); }} {
  if (!counter_) throw std::invalid_argument{"ThroughputMonitor: counter required"};
  if (interval <= sim::Time::zero())
    throw std::invalid_argument{"ThroughputMonitor: interval must be > 0"};
  lane_ = env.scheduler().lane(interval);
}

void ThroughputMonitor::start() {
  if (running_) return;
  running_ = true;
  last_bytes_ = counter_();
  timer_.schedule_in(lane_);
}

void ThroughputMonitor::stop() {
  running_ = false;
  timer_.cancel();
}

void ThroughputMonitor::tick() {
  const std::uint64_t bytes = counter_();
  const double mbps = static_cast<double>(bytes - last_bytes_) * 8.0 /
                      (interval_.to_seconds() * 1e6);
  last_bytes_ = bytes;
  series_.add(timer_.expires_at(), mbps);
  timer_.schedule_in(lane_);
}

}  // namespace eblnet::trace
