// The shared bench CLI (bench::Options) must reject integer flags it
// cannot represent instead of letting strtoull wrap them: a leading '-'
// (strtoull negates "-1" into 2^64 - 1), a value past 2^64 - 1 (strtoull
// saturates with ERANGE) and a --jobs count past UINT_MAX (the cast to
// unsigned truncates). Each exits with the usage status 2 and the
// "expects a non-negative integer" message. The only argument that is not
// a flag is `full`; any other word (a typo of it, a deleted mode) exits 2
// too instead of silently running the quick mode.
//
// bench::run, the one way a bench runs trials, must give the same bytes
// with and without --cache, and must reject an unusable --cache-dir the
// same way, before simulating anything.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "core/report.hpp"
#include "core/scenario_builder.hpp"
#include "temp_dir.hpp"

using namespace eblnet;
namespace fs = std::filesystem;

namespace {

bench::Options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return bench::Options::parse(static_cast<int>(argv.size()), argv.data());
}

constexpr const char* kRejected = "expects a non-negative integer";

/// Two short trial-1 runs (6 s, metrics on) that differ only in seed.
std::vector<core::TrialSpec> quick_specs() {
  std::vector<core::TrialSpec> specs;
  for (const std::uint64_t seed : {1, 2}) {
    specs.push_back({core::ScenarioBuilder::trial1()
                         .duration(sim::Time::seconds(std::int64_t{6}))
                         .metrics()
                         .seed(seed)
                         .build(),
                     "seed-" + std::to_string(seed)});
  }
  return specs;
}

std::string sweep_json(const std::vector<core::TrialResult>& runs) {
  std::ostringstream ss;
  core::report::write_sweep_json(ss, "bench-run", runs);
  return ss.str();
}

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

TEST_F(BenchOptionsDeathTest, UnexpectedArgumentIsRejected) {
  EXPECT_EXIT(parse({"ful"}), ::testing::ExitedWithCode(2),
              "bench: unexpected argument 'ful'\n(.|\n)*full");
}

// The default "fast" style forks after the temp file exists, so the
// child sees it and the parent alone removes it.
TEST(BenchRunDeathTest, CacheDirUnderARegularFileExitsWithUsageStatus) {
  eblnet::testing::TempDir tmp;
  const fs::path file = tmp.path() / "file";
  std::ofstream{file} << "not a directory\n";
  const bench::Options opts = parse({"--cache", "--cache-dir", (file / "cache").string()});
  EXPECT_EXIT(bench::run(quick_specs(), opts), ::testing::ExitedWithCode(2),
              "--cache-dir .*/file/cache: Not a directory");
}

TEST(BenchRunTest, CachedRunsMatchTheUncachedRunByteForByte) {
  eblnet::testing::TempDir tmp;
  const std::vector<core::TrialSpec> specs = quick_specs();
  const bench::Options cached =
      parse({"--cache", "--cache-dir", tmp.path().string(), "--jobs", "2"});
  const auto entries = [&] {
    std::size_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(tmp.path())) n += e.is_regular_file();
    return n;
  };

  const std::string cold = sweep_json(bench::run(specs, cached));
  EXPECT_EQ(entries(), specs.size());
  const std::string warm = sweep_json(bench::run(specs, cached));
  EXPECT_EQ(entries(), specs.size());
  const std::string uncached = sweep_json(bench::run(specs, parse({"--jobs", "2"})));

  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm, uncached);
}

TEST(BenchOptionsTest, FullSetsTheFullMode) {
  EXPECT_FALSE(parse({"--quiet"}).full);
  EXPECT_TRUE(parse({"--quiet", "full"}).full);
}

TEST(BenchOptionsTest, LargestRepresentableValuesAreAccepted) {
  const bench::Options opts = parse({"--seed", "18446744073709551615", "--jobs", "4294967295"});
  EXPECT_TRUE(opts.seed_set);
  EXPECT_EQ(opts.seed, 18446744073709551615ULL);
  EXPECT_EQ(opts.jobs, 4294967295U);
}

}  // namespace
