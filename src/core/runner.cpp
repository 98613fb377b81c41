#include "core/runner.hpp"

namespace eblnet::core {

Runner::Runner(unsigned jobs) : jobs_{jobs > 0 ? jobs : sim::ThreadPool::default_concurrency()} {}

std::vector<TrialResult> Runner::run_trials(std::span<const TrialSpec> specs) const {
  return map(specs.size(),
             [&specs](std::size_t i) { return run_trial(specs[i].config, specs[i].name); });
}

}  // namespace eblnet::core
