#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/trial.hpp"

namespace eblnet::core {
namespace {

// Bitwise comparison of everything a bench report could read off a
// TrialResult. Delay samples and throughput series are the raw per-seed
// data; if those match exactly, every derived statistic does too.
void expect_identical(const TrialResult& a, const TrialResult& b) {
  ASSERT_EQ(a.p1_middle.size(), b.p1_middle.size());
  for (std::size_t i = 0; i < a.p1_middle.size(); ++i) {
    EXPECT_EQ(a.p1_middle[i].seq, b.p1_middle[i].seq);
    EXPECT_EQ(a.p1_middle[i].sent.ns(), b.p1_middle[i].sent.ns());
    EXPECT_EQ(a.p1_middle[i].received.ns(), b.p1_middle[i].received.ns());
  }
  ASSERT_EQ(a.p1_trailing.size(), b.p1_trailing.size());
  ASSERT_EQ(a.p2_middle.size(), b.p2_middle.size());
  ASSERT_EQ(a.p2_trailing.size(), b.p2_trailing.size());
  EXPECT_EQ(a.p1_throughput_ci.mean, b.p1_throughput_ci.mean);
  EXPECT_EQ(a.p1_throughput_ci.half_width, b.p1_throughput_ci.half_width);
  EXPECT_EQ(a.p1_initial_packet_delay_s, b.p1_initial_packet_delay_s);
  EXPECT_EQ(a.ifq_drops, b.ifq_drops);
  EXPECT_EQ(a.phy_collisions, b.phy_collisions);
  EXPECT_EQ(a.mac_retry_drops, b.mac_retry_drops);
  EXPECT_EQ(a.routing_control_sends, b.routing_control_sends);
  EXPECT_EQ(a.data_frame_sends, b.data_frame_sends);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

std::vector<TrialSpec> short_sweep() {
  std::vector<TrialSpec> specs;
  int trial = 0;
  for (const ScenarioConfig& base : {trial1_config(), trial2_config(), trial3_config()}) {
    ++trial;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ScenarioConfig cfg = base;
      cfg.seed = seed;
      cfg.duration = sim::Time::seconds(std::int64_t{12});  // short but past brake onset
      specs.push_back({cfg, "trial " + std::to_string(trial)});
    }
  }
  return specs;
}

TEST(RunnerTest, JobsResolveToAtLeastOne) {
  EXPECT_GE(Runner{}.jobs(), 1u);
  EXPECT_EQ(Runner{3}.jobs(), 3u);
}

// The tentpole determinism guarantee: fanning trials across threads
// yields bit-identical results, in input order, to a serial run_trial
// loop. Trials 1-3, seeds 1-4. This is the regression net for any
// future shared-mutable-state leak into the simulation.
TEST(RunnerTest, ParallelTrialsBitIdenticalToSerialLoop) {
  const std::vector<TrialSpec> specs = short_sweep();

  std::vector<TrialResult> serial;
  serial.reserve(specs.size());
  for (const TrialSpec& s : specs) serial.push_back(run_trial(s.config, s.name));

  const std::vector<TrialResult> parallel = Runner{4}.run_trials(specs);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    EXPECT_EQ(parallel[i].name, serial[i].name);
    expect_identical(parallel[i], serial[i]);
  }
}

TEST(RunnerTest, MapReturnsResultsInInputOrder) {
  const std::vector<int> out =
      Runner{4}.map(64, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

// A batch starts no more workers than it has items, whatever jobs() says.
TEST(RunnerTest, SingleItemMapRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  const Runner runner{16};
  EXPECT_EQ(runner.jobs(), 16u);  // the resolved count stays unclamped
  const std::vector<std::thread::id> ran_on =
      runner.map(1, [](std::size_t) { return std::this_thread::get_id(); });
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], caller);
}

TEST(RunnerTest, TwoItemMapStartsAtMostTwoThreads) {
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks{"/proc/self/task"};
    return static_cast<long>(std::distance(begin(tasks), end(tasks)));
  };
  // ThreadSanitizer's runtime starts a helper thread along with the
  // process's first thread; start one first so the baseline holds it.
  std::thread{[] {}}.join();
  const long before = threads();
  const std::vector<long> during = Runner{16}.map(2, [&](std::size_t) { return threads(); });
  for (const long n : during) EXPECT_LE(n, before + 2);
}

TEST(RunnerTest, MapRethrowsFirstFailureInInputOrder) {
  std::atomic<int> completed{0};
  try {
    Runner{4}.map(16, [&completed](std::size_t i) -> int {
      if (i == 5 || i == 11) throw std::runtime_error{"boom " + std::to_string(i)};
      ++completed;
      return 0;
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");  // input order, not completion order
  }
  EXPECT_EQ(completed.load(), 14);  // every non-throwing item still ran
}

}  // namespace
}  // namespace eblnet::core
