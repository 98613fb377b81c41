#include "core/runner.hpp"

#include <algorithm>

#include "core/sharded_scenario.hpp"

namespace eblnet::core {

namespace {

unsigned resolve_jobs(unsigned jobs, std::size_t shards) {
  if (jobs > 0) return jobs;
  const unsigned base = sim::ThreadPool::default_concurrency();
  if (shards <= 1) return base;
  // Each trial already runs `shards` threads: keep jobs x shards near the
  // core count instead of oversubscribing by the shard factor.
  return std::max(1u, base / static_cast<unsigned>(std::min<std::size_t>(shards, base)));
}

}  // namespace

Runner::Runner(unsigned jobs, std::size_t shards)
    : jobs_{resolve_jobs(jobs, shards)}, shards_{shards > 0 ? shards : 1} {}

std::vector<TrialResult> Runner::run_trials(std::span<const TrialSpec> specs) const {
  return map(specs.size(), [this, &specs](std::size_t i) {
    return run_sharded_trial(specs[i].config, shards_, specs[i].name);
  });
}

Runner::AsyncTrials Runner::start_trials(std::vector<TrialSpec> specs) const {
  AsyncTrials batch;
  batch.pool = std::make_shared<sim::ThreadPool>(jobs_ > 1 ? jobs_ : 0);
  // The specs outlive the submit lambdas via shared ownership: the
  // handle's pool joins before the last reference can drop.
  auto shared_specs = std::make_shared<std::vector<TrialSpec>>(std::move(specs));
  batch.futures.reserve(shared_specs->size());
  for (std::size_t i = 0; i < shared_specs->size(); ++i) {
    batch.futures.push_back(batch.pool->submit([shared_specs, i, shards = shards_] {
      const TrialSpec& s = (*shared_specs)[i];
      return run_sharded_trial(s.config, shards, s.name);
    }));
  }
  return batch;
}

std::vector<TrialResult> Runner::run_trials(std::span<const ScenarioConfig> configs) const {
  return map(configs.size(),
             [this, &configs](std::size_t i) { return run_sharded_trial(configs[i], shards_); });
}

}  // namespace eblnet::core
