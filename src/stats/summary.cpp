#include "stats/summary.hpp"

#include <cmath>

namespace eblnet::stats {

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace eblnet::stats
