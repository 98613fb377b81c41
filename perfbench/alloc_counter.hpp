#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made so far by the calling thread. The benchmark
/// replaces the global allocation functions (alloc_counter.cpp) with
/// malloc wrappers that bump a thread-local counter, so a scenario running
/// on a runner worker can attribute allocations to its own phases without
/// seeing the other workers'.
std::uint64_t thread_alloc_count() noexcept;

}  // namespace perfbench
