#pragma once

#include <cstddef>
#include <future>
#include <memory>
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
/// is spawned), which is also the fallback on single-core hosts.
class Runner {
 public:
  /// `jobs` = 0 resolves via EBLNET_JOBS / hardware_concurrency().
  explicit Runner(unsigned jobs = 0);

  /// The resolved worker count (>= 1).
  unsigned jobs() const noexcept { return jobs_; }

  /// Run every spec and return results in input order. A trial that
  /// throws aborts the batch: the first failing trial's exception (in
  /// input order) is rethrown after all in-flight trials finish.
  std::vector<TrialResult> run_trials(std::span<const TrialSpec> specs) const;

  /// An in-flight asynchronous batch: `futures[i]` resolves to spec i's
  /// result; the pool (and the specs it references) stay alive as long
  /// as the handle does.
  struct AsyncTrials {
    std::shared_ptr<sim::ThreadPool> pool;
    std::vector<std::future<TrialResult>> futures;
  };

  /// Asynchronous variant of run_trials: submit every spec and return a
  /// future per spec immediately instead of blocking for the batch.
  /// campaign::run_cached_trials commits each miss in spec order with
  /// this while later misses are still executing; exceptions surface
  /// from get().
  AsyncTrials start_trials(std::vector<TrialSpec> specs) const;

  /// Generic parallel map: evaluate `fn(0) ... fn(n-1)` across the pool
  /// and return the results indexed by input. This is the primitive
  /// run_trials() is built on; benches whose experiment unit is not a
  /// TrialSpec (custom topologies, jammer setups, ...) use it
  /// directly. `fn` must be safe to call concurrently from `jobs()`
  /// threads — in this codebase that means each invocation builds its own
  /// net::Env / scenario and touches no shared mutable state.
  template <typename F, typename R = std::invoke_result_t<const F&, std::size_t>>
  std::vector<R> map(std::size_t n, const F& fn) const {
    sim::ThreadPool pool{jobs_ > 1 ? jobs_ : 0};
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
