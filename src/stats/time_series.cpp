#include "stats/time_series.hpp"

#include <limits>
#include <stdexcept>

namespace eblnet::stats {

void TimeSeries::add(sim::Time t, double value) {
  if (!points_.empty() && t < points_.back().t)
    throw std::invalid_argument{"TimeSeries: points must be time-ordered"};
  points_.push_back(Point{t, value});
}

Summary TimeSeries::summarize() const {
  Summary s;
  for (const auto& p : points_) s.add(p.value);
  return s;
}

Summary TimeSeries::summarize(sim::Time from, sim::Time to) const {
  Summary s;
  for (const auto& p : points_)
    if (p.t >= from && p.t <= to) s.add(p.value);
  return s;
}

std::size_t mser5_truncation(const std::vector<double>& series) {
  constexpr std::size_t kBatch = 5;
  const std::size_t num_batches = series.size() / kBatch;
  if (num_batches < 2) return 0;

  // Batch means.
  std::vector<double> means(num_batches);
  for (std::size_t b = 0; b < num_batches; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < kBatch; ++i) sum += series[b * kBatch + i];
    means[b] = sum / static_cast<double>(kBatch);
  }

  // Suffix sums let each candidate truncation be evaluated in O(1).
  std::vector<double> suffix_sum(num_batches + 1, 0.0), suffix_sq(num_batches + 1, 0.0);
  for (std::size_t b = num_batches; b-- > 0;) {
    suffix_sum[b] = suffix_sum[b + 1] + means[b];
    suffix_sq[b] = suffix_sq[b + 1] + means[b] * means[b];
  }

  std::size_t best_cut = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t cut = 0; cut <= num_batches / 2; ++cut) {
    const auto n = static_cast<double>(num_batches - cut);
    const double mean = suffix_sum[cut] / n;
    const double var = suffix_sq[cut] / n - mean * mean;
    const double score = (var < 0.0 ? 0.0 : var) / n;  // squared std error
    if (score < best_score) {
      best_score = score;
      best_cut = cut;
    }
  }
  return best_cut * kBatch;
}

}  // namespace eblnet::stats
