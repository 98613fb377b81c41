#include "core/runner.hpp"

namespace eblnet::core {

Runner::Runner(unsigned jobs) : jobs_{jobs > 0 ? jobs : sim::ThreadPool::default_concurrency()} {}

std::vector<TrialResult> Runner::run_trials(std::span<const TrialSpec> specs) const {
  return map(specs.size(),
             [&specs](std::size_t i) { return run_trial(specs[i].config, specs[i].name); });
}

Runner::AsyncTrials Runner::start_trials(std::vector<TrialSpec> specs) const {
  AsyncTrials batch;
  batch.pool = std::make_shared<sim::ThreadPool>(jobs_ > 1 ? jobs_ : 0);
  // The specs outlive the submit lambdas via shared ownership: the
  // handle's pool joins before the last reference can drop.
  auto shared_specs = std::make_shared<std::vector<TrialSpec>>(std::move(specs));
  batch.futures.reserve(shared_specs->size());
  for (std::size_t i = 0; i < shared_specs->size(); ++i) {
    batch.futures.push_back(batch.pool->submit([shared_specs, i] {
      const TrialSpec& s = (*shared_specs)[i];
      return run_trial(s.config, s.name);
    }));
  }
  return batch;
}

}  // namespace eblnet::core
