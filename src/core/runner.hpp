#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/trial.hpp"

namespace eblnet::core {

/// A (config, name) pair queued for execution. The name is carried into
/// TrialResult::name, as with run_trial().
struct TrialSpec {
  ScenarioConfig config;
  std::string name;
};

/// Parallel experiment engine: fans independent trials out across
/// worker threads and returns their results **in input order**.
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
/// The calling thread is one of the workers: a batch starts one thread
/// fewer than it runs workers. One job means "run serially on the calling
/// thread" (no thread is started), which is also the fallback on
/// single-core hosts. A batch never runs more workers than it has items:
/// a one-item batch also runs on the calling thread, whatever the job
/// count.
class Runner {
 public:
  /// `jobs` = 0 resolves via EBLNET_JOBS / hardware_concurrency().
  explicit Runner(unsigned jobs = 0);

  /// The resolved worker count (>= 1), before map() caps it at the
  /// batch size.
  unsigned jobs() const noexcept { return jobs_; }

  /// Run every spec and return results in input order. A trial that
  /// throws fails the batch: every other trial still runs, then the first
  /// failing trial's exception (in input order) is rethrown.
  std::vector<TrialResult> run_trials(std::span<const TrialSpec> specs) const;

  /// Generic parallel map: evaluate `fn(0) ... fn(n-1)` and return the
  /// results indexed by input. This is the primitive run_trials() is
  /// built on; benches whose experiment unit is not a TrialSpec (custom
  /// topologies, jammer setups, ...) use it directly. `fn` must be safe
  /// to call concurrently from `jobs()` threads — in this codebase that
  /// means each invocation builds its own net::Env / scenario and
  /// touches no shared mutable state.
  ///
  /// min(jobs(), n) workers, the calling thread and min(jobs(), n) - 1
  /// jthreads, take indices from one counter and write each result or
  /// exception into that index's slot; with one worker the calling thread
  /// runs every item itself, in index order. Every item runs even after
  /// one throws, and the first exception in input order is rethrown once
  /// all have finished.
  template <typename F, typename R = std::invoke_result_t<const F&, std::size_t>>
  std::vector<R> map(std::size_t n, const F& fn) const {
    struct Slot {
      std::optional<R> result;
      std::exception_ptr error;
    };
    std::vector<Slot> slots(n);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          slots[i].result.emplace(fn(i));
        } catch (...) {
          slots[i].error = std::current_exception();
        }
      }
    };
    const unsigned workers = n < jobs_ ? static_cast<unsigned>(n) : jobs_;
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 1; t < workers; ++t) threads.emplace_back(work);
      work();
    }  // the jthreads join here
    std::vector<R> results;
    results.reserve(n);
    for (Slot& s : slots) {
      if (s.error) std::rethrow_exception(s.error);
      results.push_back(std::move(*s.result));
    }
    return results;
  }

 private:
  unsigned jobs_;
};

}  // namespace eblnet::core
