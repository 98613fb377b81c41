#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace eblnet::stats {

/// Streaming summary statistics: count, min, max, mean, variance.
/// Mean/variance use Welford's online algorithm for numerical stability,
/// so very long simulations do not accumulate cancellation error.
class Summary {
 public:
  void add(double x) noexcept {
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Min/max of the observed samples; +inf/-inf when empty.
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Mean of the observed samples; 0 when empty.
  double mean() const noexcept { return mean_; }

  /// Unbiased sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const noexcept;

  void reset() noexcept { *this = Summary{}; }

 private:
  std::uint64_t n_{0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
  double mean_{0.0};
  double m2_{0.0};
};

}  // namespace eblnet::stats
