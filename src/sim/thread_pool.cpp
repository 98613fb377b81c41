#include "sim/thread_pool.hpp"

#include <cstdlib>
#include <limits>
#include <string>

namespace eblnet::sim {

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

unsigned ThreadPool::default_concurrency() {
  if (const char* env = std::getenv("EBLNET_JOBS"); env != nullptr) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    // Values past UINT_MAX count as garbage rather than wrapping.
    if (end != env && *end == '\0' && parsed > 0 &&
        static_cast<unsigned long>(parsed) <= std::numeric_limits<unsigned>::max())
      return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace eblnet::sim
