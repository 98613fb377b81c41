#pragma once

#include <cstddef>
#include <future>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/trial.hpp"
#include "sim/thread_pool.hpp"

namespace eblnet::core {

/// A (config, name) pair queued for execution. The name is carried into
/// TrialResult::name, as with run_trial().
struct TrialSpec {
  ScenarioConfig config;
  std::string name;
};

/// Parallel experiment engine: fans independent trials out across a
/// thread pool and returns their results **in input order**.
///
/// Every trial owns its whole simulation world (net::Env — scheduler,
/// RNG, uid allocator — plus scenario, nodes, trace), so running trials
/// concurrently is embarrassingly parallel and each per-seed result is
/// bit-identical to what a serial `run_trial` loop produces. The across-
/// seed sweeps (confidence tables, ablations) are the dominant wall-clock
/// cost of the reproduction; this layer is how they use all the cores.
///
/// Job count resolution (first match wins):
///   1. a positive `jobs` passed to the constructor;
///   2. the EBLNET_JOBS environment variable;
///   3. std::thread::hardware_concurrency().
/// One job means "run serially on the calling thread" (no worker thread
/// is spawned), which is also the fallback on single-core hosts. A batch
/// never starts more workers than it has items: a one-item batch also
/// runs on the calling thread, whatever the job count.
class Runner {
 public:
  /// `jobs` = 0 resolves via EBLNET_JOBS / hardware_concurrency().
  explicit Runner(unsigned jobs = 0);

  /// The resolved worker count (>= 1), before map() caps it at the
  /// batch size.
  unsigned jobs() const noexcept { return jobs_; }

  /// Run every spec and return results in input order. A trial that
  /// throws aborts the batch: the first failing trial's exception (in
  /// input order) is rethrown after all in-flight trials finish.
  std::vector<TrialResult> run_trials(std::span<const TrialSpec> specs) const;

  /// Generic parallel map: evaluate `fn(0) ... fn(n-1)` across the pool
  /// and return the results indexed by input. This is the primitive
  /// run_trials() is built on; benches whose experiment unit is not a
  /// TrialSpec (custom topologies, jammer setups, ...) use it
  /// directly. `fn` must be safe to call concurrently from `jobs()`
  /// threads — in this codebase that means each invocation builds its own
  /// net::Env / scenario and touches no shared mutable state. The pool
  /// holds min(jobs(), n) workers, none when that is 1.
  template <typename F, typename R = std::invoke_result_t<const F&, std::size_t>>
  std::vector<R> map(std::size_t n, const F& fn) const {
    const unsigned workers = n < jobs_ ? static_cast<unsigned>(n) : jobs_;
    sim::ThreadPool pool{workers > 1 ? workers : 0};
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool.submit([&fn, i] { return fn(i); }));
    }
    std::vector<R> results;
    results.reserve(n);
    for (auto& f : futures) results.push_back(f.get());
    return results;
  }

 private:
  unsigned jobs_;
};

}  // namespace eblnet::core
