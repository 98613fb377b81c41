#include "core/runner.hpp"

#include <cstdlib>
#include <limits>

namespace eblnet::core {

namespace {

/// The EBLNET_JOBS environment variable if set to a positive integer,
/// otherwise std::thread::hardware_concurrency() (min 1).
unsigned default_jobs() {
  if (const char* env = std::getenv("EBLNET_JOBS"); env != nullptr) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    // Values past UINT_MAX count as garbage rather than wrapping.
    if (end != env && *end == '\0' && parsed > 0 &&
        static_cast<unsigned long>(parsed) <= std::numeric_limits<unsigned>::max())
      return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

Runner::Runner(unsigned jobs) : jobs_{jobs > 0 ? jobs : default_jobs()} {}

std::vector<TrialResult> Runner::run_trials(std::span<const TrialSpec> specs) const {
  return map(specs.size(),
             [&specs](std::size_t i) { return run_trial(specs[i].config, specs[i].name); });
}

}  // namespace eblnet::core
