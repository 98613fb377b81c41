#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "stats/summary.hpp"

namespace eblnet::stats {

/// An append-only (time, value) series — e.g. throughput samples or
/// per-packet delays indexed by send time. Points must be appended in
/// nondecreasing time order.
class TimeSeries {
 public:
  struct Point {
    sim::Time t;
    double value;
  };

  void add(sim::Time t, double value);

  const std::vector<Point>& points() const noexcept { return points_; }
  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }

  /// Summary over all values.
  Summary summarize() const;

  /// Summary over values with t in [from, to].
  Summary summarize(sim::Time from, sim::Time to) const;

 private:
  std::vector<Point> points_;
};

/// MSER-5 initial-transient truncation (White 1997): group the series
/// into batches of five, then choose the truncation point that minimises
/// the standard error of the remaining batch means. Returns the index of
/// the first *observation* to keep (a multiple of 5). The tail half of
/// the series is never truncated (the usual MSER safeguard). Used to
/// locate the paper's "transient state" boundary without hand-picking a
/// packet count.
std::size_t mser5_truncation(const std::vector<double>& series);

}  // namespace eblnet::stats
