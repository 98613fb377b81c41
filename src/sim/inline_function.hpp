#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace eblnet::sim {

/// Small-buffer-only `void()` callable: the event-loop replacement for
/// `std::function<void()>`.
///
/// Every simulated packet turns into several scheduled closures, and
/// `std::function` heap-allocates whenever a capture outgrows its tiny
/// internal buffer — which on the event hot path means one allocation per
/// event. InlineFunction instead embeds `Capacity` bytes of storage and
/// has **no heap fallback at all**: a closure that does not fit is a
/// compile error (static_assert), so capture growth is caught at the call
/// site instead of silently reintroducing allocations. Move-only, since
/// the scheduler never copies callbacks and copyability would force every
/// capture (e.g. a pooled-packet handle) to be copyable too.
///
/// The two function pointers follow the storage so an InlineFunction is a
/// flat `Capacity + 2*sizeof(void*)` blob. Moving one relocates the live
/// capture through its move constructor, unless the capture is trivially
/// copyable (`[this]`, `[this, index]`: every Timer handler and most
/// scheduled events). Such a capture has no relocate function at all: a
/// move copies the buffer's bytes, and a reset only forgets them.
template <std::size_t Capacity>
class InlineFunction {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  InlineFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    static_assert(sizeof(D) <= Capacity,
                  "closure capture exceeds InlineFunction capacity: shrink the capture "
                  "(e.g. capture a pooled handle instead of a by-value packet) or raise "
                  "the capacity constant at the owner");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "closure alignment exceeds InlineFunction storage alignment");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "closure must be nothrow-move-constructible (scheduler slots relocate it)");
    // Zeroed first: a move byte-copies the whole buffer of a trivially
    // copyable capture, padding and unused tail included, and GCC's
    // -Wmaybe-uninitialized cannot tell that other captures never take
    // that branch.
    std::memset(buf_, 0, Capacity);
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* s) { (*static_cast<D*>(s))(); };
    if constexpr (!std::is_trivially_copyable_v<D>) {
      relocate_or_destroy_ = [](void* dst, void* src) noexcept {
        if (dst != nullptr) ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Destroy the held callable (releasing whatever it captured, e.g.
  /// pooled packets of a cancelled event); leaves *this empty.
  void reset() noexcept {
    if (relocate_or_destroy_ != nullptr) relocate_or_destroy_(nullptr, buf_);
    invoke_ = nullptr;
    relocate_or_destroy_ = nullptr;
  }

 private:
  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    relocate_or_destroy_ = other.relocate_or_destroy_;
    if (relocate_or_destroy_ != nullptr) {
      relocate_or_destroy_(buf_, other.buf_);
    } else if (invoke_ != nullptr) {
      // A trivially copyable capture: its bytes are the object.
      std::memcpy(buf_, other.buf_, Capacity);
    }
    other.invoke_ = nullptr;
    other.relocate_or_destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  void (*invoke_)(void*) = nullptr;
  /// dst != nullptr: move-construct dst from src, then destroy src.
  /// dst == nullptr: just destroy src. Null for a trivially copyable
  /// capture, which a byte copy relocates and nothing destroys.
  void (*relocate_or_destroy_)(void* dst, void* src) noexcept = nullptr;
};

}  // namespace eblnet::sim
