// The shared bench CLI (bench::Options) must reject integer flags it
// cannot represent instead of letting strtoull wrap them: a leading '-'
// (strtoull negates "-1" into 2^64 - 1), a value past 2^64 - 1 (strtoull
// saturates with ERANGE) and a --jobs count past UINT_MAX (the cast to
// unsigned truncates). Each exits with the usage status 2 and the
// "expects a non-negative integer" message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/options.hpp"

using namespace eblnet;

namespace {

bench::Options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return bench::Options::parse(static_cast<int>(argv.size()), argv.data());
}

constexpr const char* kRejected = "expects a non-negative integer";

class BenchOptionsDeathTest : public ::testing::Test {
 protected:
  void SetUp() override { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

TEST_F(BenchOptionsDeathTest, NegativeJobsIsRejected) {
  EXPECT_EXIT(parse({"--jobs", "-1"}), ::testing::ExitedWithCode(2), kRejected);
}

TEST_F(BenchOptionsDeathTest, NegativeSeedIsRejected) {
  EXPECT_EXIT(parse({"--seed", "-1"}), ::testing::ExitedWithCode(2), kRejected);
}

TEST_F(BenchOptionsDeathTest, SeedPastUint64IsRejected) {
  EXPECT_EXIT(parse({"--seed", "18446744073709551616"}), ::testing::ExitedWithCode(2),
              kRejected);
}

TEST_F(BenchOptionsDeathTest, JobsPastUintMaxIsRejected) {
  EXPECT_EXIT(parse({"--jobs", "4294967296"}), ::testing::ExitedWithCode(2), kRejected);
}

TEST(BenchOptionsTest, LargestRepresentableValuesAreAccepted) {
  const bench::Options opts = parse({"--seed", "18446744073709551615", "--jobs", "4294967295"});
  EXPECT_TRUE(opts.seed_set);
  EXPECT_EQ(opts.seed, 18446744073709551615ULL);
  EXPECT_EQ(opts.jobs, 4294967295U);
}

}  // namespace
