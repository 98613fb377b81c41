#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace eblnet::net {

class PacketPool;

/// Move-only RAII handle to a pool-owned Packet. Destroying (or
/// resetting) the handle returns the packet to the pool. 16 bytes, so it
/// fits comfortably inside an InlineFunction capture where a by-value
/// Packet would not.
class PooledPacket {
 public:
  PooledPacket() noexcept = default;
  PooledPacket(PacketPool* pool, Packet* p) noexcept : pool_{pool}, p_{p} {}

  PooledPacket(PooledPacket&& other) noexcept : pool_{other.pool_}, p_{other.p_} {
    other.pool_ = nullptr;
    other.p_ = nullptr;
  }

  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      p_ = other.p_;
      other.pool_ = nullptr;
      other.p_ = nullptr;
    }
    return *this;
  }

  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;

  ~PooledPacket() { reset(); }

  /// Return the packet to its pool; leaves *this empty.
  void reset() noexcept;

  Packet& operator*() const noexcept { return *p_; }
  Packet* operator->() const noexcept { return p_; }
  Packet* get() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

 private:
  PacketPool* pool_{nullptr};
  Packet* p_{nullptr};
};

/// Per-Env free-list of Packet storage (the NS-2 packet free-list idea).
///
/// A radio that starts decoding a broadcast keeps its own copy of the
/// frame while the reception lasts (phy::WirelessPhy::signal_start), and
/// an event capture with room for a handle but not for a Packet holds a
/// frame the same way. The pool recycles whole Packet objects, so
/// steady-state acquire/clone/release cycles perform zero allocations
/// once the pool has warmed up to the simulation's peak count of kept
/// copies; only the vectors of an `AodvRerrHeader` or `DsdvUpdateHeader`
/// are copied afresh.
///
/// Ownership: the pool owns the storage forever (`owned_`); handles only
/// borrow. The pool must outlive every handle — `net::Env` declares its
/// pool before the scheduler so pending events whose captures hold
/// handles release into a live pool during teardown.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A default-state packet (recycled storage, all fields reset).
  PooledPacket acquire() { return PooledPacket{this, take_blank()}; }

  /// Move `p`'s contents into a pooled shell (steals its vector storage).
  PooledPacket adopt(Packet&& p) {
    Packet* shell = take_blank();
    *shell = std::move(p);
    return PooledPacket{this, shell};
  }

  /// Copy `p`, every field of it, into a pooled shell.
  PooledPacket clone(const Packet& p) {
    Packet* shell = take_blank();
    *shell = p;
    return PooledPacket{this, shell};
  }

  /// Return a packet to the free list (normally via PooledPacket). The
  /// packet is fully reset to default state.
  void release(Packet* p) noexcept;

  std::size_t total_count() const noexcept { return owned_.size(); }
  std::size_t free_count() const noexcept { return free_.size(); }

 private:
  Packet* take_blank();

  std::vector<std::unique_ptr<Packet>> owned_;
  std::vector<Packet*> free_;
};

inline void PooledPacket::reset() noexcept {
  if (p_ != nullptr) {
    pool_->release(p_);
    pool_ = nullptr;
    p_ = nullptr;
  }
}

}  // namespace eblnet::net
