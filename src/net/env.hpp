#pragma once

#include <cstdint>

#include "net/packet_pool.hpp"
#include "net/trace_sink.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace eblnet::net {

/// Shared simulation environment: the clock/event queue, the random
/// stream, the packet uid allocator and the trace sink. One Env per
/// simulation; every node and layer holds a reference to it, which keeps
/// uid allocation and randomness per-simulation (two simulations in one
/// process are fully independent and reproducible).
class Env {
 public:
  explicit Env(std::uint64_t seed = 1) : rng_{seed}, seed_{seed} {}

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  sim::Rng& rng() noexcept { return rng_; }
  sim::Time now() const noexcept { return scheduler_.now(); }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Fault-injection controller; quiescent (single-branch queries) until
  /// a non-empty plan is installed.
  sim::FaultController& faults() noexcept { return faults_; }
  const sim::FaultController& faults() const noexcept { return faults_; }

  /// Validate and schedule `plan` (a no-op for the default empty plan).
  void install_faults(const sim::FaultPlan& plan) {
    faults_.install(plan, scheduler_, &metrics_, seed_);
  }

  /// Per-layer counter/gauge registry. Disabled by default: every
  /// `metrics().add(...)` on the packet hot path is then a single branch
  /// (and compiles out entirely under EBLNET_METRICS_DISABLED).
  sim::MetricsRegistry& metrics() noexcept { return metrics_; }
  const sim::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Free-list of Packet storage for the frames radios decode and any
  /// scheduled closure that would otherwise capture a Packet by value.
  PacketPool& packet_pool() noexcept { return pool_; }

  std::uint64_t alloc_uid() noexcept { return next_uid_++; }

  void set_trace_sink(TraceSink* sink) noexcept { trace_ = sink; }
  TraceSink* trace_sink() const noexcept { return trace_; }

  /// Emit a trace record for `p` as seen at `layer` on `node`. When no
  /// sink is attached this is a branch and nothing else — no string is
  /// built and no packet field is inspected, so tracing-off simulations
  /// pay (almost) nothing on the packet hot path.
  void trace(TraceAction action, TraceLayer layer, NodeId node, const Packet& p,
             const char* reason = nullptr) {
    if (trace_ == nullptr) return;
    TraceRecord r;
    r.t = scheduler_.now();
    r.action = action;
    r.layer = layer;
    r.node = node;
    r.uid = p.uid;
    r.type = p.type;
    r.size = p.size_bytes();
    if (p.ip) {
      r.ip_src = p.ip->src;
      r.ip_dst = p.ip->dst;
    }
    r.app_seq = p.app_seq;
    if (reason != nullptr) r.reason = reason;
    trace_->record(r);
  }

 private:
  // The pool is declared before the scheduler so it is destroyed *after*
  // it: pending events whose captures hold PooledPacket handles release
  // them into a still-live pool during teardown.
  PacketPool pool_;
  sim::Scheduler scheduler_;
  sim::Rng rng_;
  sim::MetricsRegistry metrics_;
  sim::FaultController faults_;
  TraceSink* trace_{nullptr};
  std::uint64_t next_uid_{1};
  std::uint64_t seed_{1};
};

}  // namespace eblnet::net
