// Counting replacements for the global allocation functions, linked into
// every perfbench binary. Every `new` variant funnels into malloc (or
// posix_memalign) after bumping a thread-local counter; every `delete` is
// a plain free, so any pointer stays malloc/free-compatible whichever
// variant allocated it. The counter is thread-local, so counting costs no
// shared cache line even when runner workers allocate concurrently.

#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size == 0 ? 1 : size) != 0)
    return nullptr;
  return p;
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

namespace perfbench {
std::uint64_t thread_alloc_count() noexcept { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(counted_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(counted_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
