// The shared bench CLI (bench::Options) must reject integer flags it
// cannot represent instead of letting strtoull wrap them: a leading '-'
// (strtoull negates "-1" into 2^64 - 1), a value past 2^64 - 1 (strtoull
// saturates with ERANGE) and a --jobs count past UINT_MAX (the cast to
// unsigned truncates). Each exits with the usage status 2 and the
// "expects a non-negative integer" message. The only argument that is not
// a flag is `full`; any other word (a typo of it, a deleted mode) exits 2
// too instead of silently running the quick mode, and so does a deleted
// flag.
//
// A --json path the bench could not write must fail the same way, before
// anything is simulated, not after the run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/options.hpp"
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

// The usage text, whole: the run-cache flags and campaign_sweep's full
// mode are gone from it.
constexpr const char* kUsage =
    "usage: bench \\[options\\] \\[full\\]\n"
    "  --json <path>   [^\n]*\n"
    "  --seed <n>      [^\n]*\n"
    "  --jobs <n>      [^\n]*\n"
    "  --quiet         [^\n]*\n"
    "  --help          [^\n]*\n"
    "  full            full mode \\(perf_scale, traffic_sweep\\)\n$";

TEST_F(BenchOptionsDeathTest, DeletedCacheFlagsAreUnknown) {
  EXPECT_EXIT(parse({"--cache"}), ::testing::ExitedWithCode(2),
              std::string{"^bench: unknown flag --cache\n"} + kUsage);
  EXPECT_EXIT(parse({"--cache-dir", "d"}), ::testing::ExitedWithCode(2),
              std::string{"^bench: unknown flag --cache-dir\n"} + kUsage);
}

TEST_F(BenchOptionsDeathTest, JsonPathUnderARegularFileExitsWithUsageStatus) {
  // The "fast" style forks after the temp file exists, so the child sees
  // it and the parent alone removes it.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  eblnet::testing::TempDir tmp;
  const fs::path file = tmp.path() / "file";
  std::ofstream{file} << "not a directory\n";
  EXPECT_EXIT(parse({"--json", (file / "x.json").string(), "--quiet"}),
              ::testing::ExitedWithCode(2), "^bench: --json .*/file/x\\.json: Not a directory\n$");
}

TEST(BenchOptionsTest, JsonPathIsCreatedWithoutTruncation) {
  eblnet::testing::TempDir tmp;
  const fs::path fresh = tmp.path() / "fresh.json";
  EXPECT_TRUE(parse({"--json", fresh.string()}).want_json());
  EXPECT_TRUE(fs::is_regular_file(fresh));
  EXPECT_EQ(fs::file_size(fresh), 0u);

  const fs::path kept = tmp.path() / "kept.json";
  std::ofstream{kept} << "{}\n";
  parse({"--json", kept.string()});
  EXPECT_EQ(fs::file_size(kept), 3u);
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
