#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/rng.hpp"

namespace eblnet::sim {
namespace {

TEST(ThreadPoolTest, ZeroThreadsRunsInlineOnSubmit) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  auto ran_on = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on.get(), caller);
}

TEST(ThreadPoolTest, SingleWorkerRunsOffCallingThread) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  auto ran_on = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_NE(ran_on.get(), caller);
}

TEST(ThreadPoolTest, FuturesReturnResultsForEverySubmission) {
  ThreadPool pool{4};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  // One worker drains the FIFO in submission order — the property the
  // runner's jobs=1 path relies on for serial-identical behaviour.
  ThreadPool pool{1};
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool{2};
  auto failing = pool.submit([]() -> int { throw std::runtime_error{"trial failed"}; });
  auto fine = pool.submit([] { return 7; });
  EXPECT_THROW(failing.get(), std::runtime_error);
  EXPECT_EQ(fine.get(), 7);  // one failure doesn't poison the pool
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] { ++done; });
    }
  }  // ~ThreadPool joins after the queue is empty
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ManyTinyTasksYieldStableResultOrder) {
  // Contention determinism: thousands of sub-microsecond tasks racing
  // over the queue lock must still hand every future the value of *its*
  // submission, so collecting futures in submission order reproduces the
  // serial computation exactly — the property the Runner builds on. Two
  // passes over a fixed seed must agree.
  constexpr std::size_t kTasks = 10000;
  constexpr std::uint64_t kSeed = 42;
  const auto sweep = [&] {
    ThreadPool pool{8};
    std::vector<std::future<std::uint64_t>> futures;
    futures.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([i] { return mix_seed(kSeed, i); }));
    }
    std::vector<std::uint64_t> out;
    out.reserve(kTasks);
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  const std::vector<std::uint64_t> first = sweep();
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(first[i], mix_seed(kSeed, i)) << "task " << i << " got another task's slot";
  }
  EXPECT_EQ(sweep(), first);  // independent of the workers' interleaving
}

TEST(ThreadPoolTest, ConcurrentSubmittersEachSeeTheirOwnResults) {
  // Multi-producer contention: four threads hammer submit() at once.
  // Global start order is whatever the lock arbitration makes it, but
  // each producer's futures must still resolve to its own sequence.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  ThreadPool pool{4};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &mismatches, p] {
      std::vector<std::future<std::uint64_t>> futures;
      futures.reserve(kPerProducer);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        futures.push_back(pool.submit([p, i] { return mix_seed(p, i); }));
      }
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        if (futures[i].get() != mix_seed(p, i)) ++mismatches;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ThreadPoolTest, DefaultConcurrencyHonoursEnvOverride) {
  ::unsetenv("EBLNET_JOBS");
  const unsigned fallback = ThreadPool::default_concurrency();
  ::setenv("EBLNET_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ::setenv("EBLNET_JOBS", "garbage", 1);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
  ::setenv("EBLNET_JOBS", "-2", 1);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
  // Past UINT_MAX is garbage too, not a wrapped count (1 and 705,032,704).
  ::setenv("EBLNET_JOBS", "4294967297", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), fallback);
  ::setenv("EBLNET_JOBS", "5000000000", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), fallback);
  ::unsetenv("EBLNET_JOBS");
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

}  // namespace
}  // namespace eblnet::sim
