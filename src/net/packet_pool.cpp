#include "net/packet_pool.hpp"

namespace eblnet::net {

Packet* PacketPool::take_blank() {
  if (!free_.empty()) {
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }
  owned_.push_back(std::make_unique<Packet>());
  return owned_.back().get();
}

void PacketPool::release(Packet* p) noexcept {
  if (p == nullptr) return;
  *p = Packet{};
  free_.push_back(p);
}

}  // namespace eblnet::net
