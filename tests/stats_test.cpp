#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"
#include "stats/confidence.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"

namespace eblnet::stats {
namespace {

using sim::Time;
using namespace sim::time_literals;

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

TEST(SummaryTest, EmptySummary) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(SummaryTest, WelfordMatchesNaiveOnRandomData) {
  sim::Rng rng{5};
  Summary s;
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(100.0, 15.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(SummaryTest, NumericallyStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: tiny variance on a huge mean.
  Summary s;
  for (const double x : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Confidence intervals
// ---------------------------------------------------------------------------

TEST(ConfidenceTest, StudentTKnownValues) {
  EXPECT_NEAR(student_t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(9, 0.95), 2.262, 1e-3);
  EXPECT_NEAR(student_t_critical(30, 0.95), 2.042, 1e-3);
  EXPECT_NEAR(student_t_critical(10000, 0.95), 1.960, 1e-3);
  EXPECT_NEAR(student_t_critical(9, 0.99), 3.250, 1e-3);
  EXPECT_NEAR(student_t_critical(9, 0.90), 1.833, 1e-3);
}

TEST(ConfidenceTest, StudentTMonotoneInDof) {
  double prev = student_t_critical(1, 0.95);
  for (std::uint64_t dof = 2; dof <= 200; ++dof) {
    const double t = student_t_critical(dof, 0.95);
    EXPECT_LE(t, prev + 1e-12) << "dof=" << dof;
    prev = t;
  }
}

TEST(ConfidenceTest, RejectsUnsupportedLevels) {
  EXPECT_THROW(student_t_critical(5, 0.5), std::invalid_argument);
  EXPECT_THROW(student_t_critical(0, 0.95), std::invalid_argument);
}

TEST(ConfidenceTest, IntervalHandComputedExample) {
  // Samples 10, 12, 14: mean 12, s = 2, half-width = t(2,.95)*2/sqrt(3).
  Summary s;
  s.add(10.0);
  s.add(12.0);
  s.add(14.0);
  const auto ci = mean_confidence_interval(s, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 12.0);
  EXPECT_NEAR(ci.half_width, 4.303 * 2.0 / std::sqrt(3.0), 1e-3);
  EXPECT_NEAR(ci.relative_precision(), ci.half_width / 12.0, 1e-12);
}

TEST(ConfidenceTest, FewerThanTwoSamplesGiveZeroWidth) {
  Summary s;
  const auto empty = mean_confidence_interval(s);
  EXPECT_EQ(empty.half_width, 0.0);
  s.add(5.0);
  const auto one = mean_confidence_interval(s);
  EXPECT_EQ(one.half_width, 0.0);
  EXPECT_EQ(one.mean, 5.0);
}

TEST(ConfidenceTest, CoverageIsApproximatelyNominal) {
  // Property: ~95% of CIs built from N(0,1) samples contain 0.
  sim::Rng rng{21};
  int covered = 0;
  constexpr int kTrials = 1000;
  for (int t = 0; t < kTrials; ++t) {
    Summary s;
    for (int i = 0; i < 30; ++i) s.add(rng.normal());
    const auto ci = mean_confidence_interval(s, 0.95);
    if (ci.lower() <= 0.0 && 0.0 <= ci.upper()) ++covered;
  }
  EXPECT_NEAR(static_cast<double>(covered) / kTrials, 0.95, 0.025);
}

TEST(ConfidenceTest, BatchMeansReducesToSaneInterval) {
  sim::Rng rng{33};
  std::vector<double> series;
  for (int i = 0; i < 1000; ++i) series.push_back(5.0 + rng.normal(0.0, 1.0));
  const auto ci = batch_means_confidence_interval(series, 10);
  EXPECT_NEAR(ci.mean, 5.0, 0.15);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.5);
  EXPECT_EQ(ci.samples, 10u);
}

TEST(ConfidenceTest, BatchMeansValidatesArguments) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_THROW(batch_means_confidence_interval(tiny, 10), std::invalid_argument);
  EXPECT_THROW(batch_means_confidence_interval(tiny, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, RequiresTimeOrder) {
  TimeSeries ts;
  ts.add(1_s, 1.0);
  ts.add(1_s, 2.0);  // equal timestamps allowed
  EXPECT_THROW(ts.add(Time::zero(), 3.0), std::invalid_argument);
}

TEST(TimeSeriesTest, SummarizeAllAndWindow) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(Time::seconds(std::int64_t{i}), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(ts.summarize().mean(), 4.5);
  const Summary w = ts.summarize(2_s, 4_s);
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

// ---------------------------------------------------------------------------
// MSER-5 transient truncation
// ---------------------------------------------------------------------------

TEST(Mser5Test, FlatSeriesNeedsNoTruncation) {
  std::vector<double> series(200, 1.0);
  EXPECT_EQ(mser5_truncation(series), 0u);
}

TEST(Mser5Test, DetectsInitialTransient) {
  // 50 observations of a decaying transient, then steady noise around 1.
  sim::Rng rng{3};
  std::vector<double> series;
  for (int i = 0; i < 50; ++i) series.push_back(5.0 - 0.08 * i + rng.normal(0.0, 0.05));
  for (int i = 0; i < 450; ++i) series.push_back(1.0 + rng.normal(0.0, 0.05));
  const std::size_t cut = mser5_truncation(series);
  EXPECT_GE(cut, 35u);
  EXPECT_LE(cut, 70u);
  EXPECT_EQ(cut % 5, 0u);
}

TEST(Mser5Test, RisingTransientAlsoDetected) {
  sim::Rng rng{5};
  std::vector<double> series;
  for (int i = 0; i < 40; ++i) series.push_back(0.02 * i + rng.normal(0.0, 0.02));
  for (int i = 0; i < 360; ++i) series.push_back(0.8 + rng.normal(0.0, 0.02));
  const std::size_t cut = mser5_truncation(series);
  EXPECT_GE(cut, 25u);
  EXPECT_LE(cut, 60u);
}

TEST(Mser5Test, NeverCutsPastHalf) {
  // Pathological: monotonically rising forever. The safeguard caps the
  // cut at half the batches.
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(static_cast<double>(i));
  EXPECT_LE(mser5_truncation(series), 50u);
}

TEST(Mser5Test, TinySeriesReturnsZero) {
  EXPECT_EQ(mser5_truncation({}), 0u);
  EXPECT_EQ(mser5_truncation({1.0, 2.0, 3.0}), 0u);
  EXPECT_EQ(mser5_truncation(std::vector<double>(7, 1.0)), 0u);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(1.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, QuantileOfUniformData) {
  Histogram h{0.0, 1.0, 100};
  sim::Rng rng{2};
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.02);
}

TEST(HistogramTest, ValidatesArguments) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  Histogram h{0.0, 1.0, 10};
  EXPECT_THROW(h.quantile(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace eblnet::stats
