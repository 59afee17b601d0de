#include "ap/cyclic_queue.h"

#include <utility>

namespace wgtt::ap {

CyclicQueue::CyclicQueue(net::PacketPool* pool) : pool_(pool) {}
// The slot ring is allocated on the first put(): every AP keeps one queue
// per registered client, and at city scale (1024 APs x 256 clients) the
// eager 32 KB rings alone would cost ~8 GB while only the handful of
// queues near each client ever see a packet.

CyclicQueue::~CyclicQueue() {
  // Hand occupied slots back so the shared pool's accounting stays exact.
  clear();
}

void CyclicQueue::put(std::uint16_t index, net::Packet packet) {
  put_handle(index, pool_->acquire(std::move(packet)));
}

void CyclicQueue::put_handle(std::uint16_t index,
                             net::PacketPool::Handle handle) {
  index &= kIndexSpace - 1;
  if (slots_.empty()) slots_.resize(kIndexSpace);
  Slot& s = slots_[index];
  if (!s.occupied) {
    ++occupied_;
  } else {
    ++overwrites_;
    // The displaced occupant may be shared with other queues: drop this
    // queue's reference, never mutate the pool slot in place.
    pool_->drop(s.handle);
  }
  s.handle = handle;
  s.index = index;
  s.occupied = true;
  newest_ = index;
}

const net::Packet* CyclicQueue::peek(std::uint16_t index) const {
  if (slots_.empty()) return nullptr;
  index &= kIndexSpace - 1;
  const Slot& s = slots_[index];
  return s.occupied && s.index == index ? pool_->get(s.handle) : nullptr;
}

std::optional<net::Packet> CyclicQueue::take(std::uint16_t index) {
  if (slots_.empty()) return std::nullopt;
  index &= kIndexSpace - 1;
  Slot& s = slots_[index];
  if (!s.occupied || s.index != index) return std::nullopt;
  s.occupied = false;
  --occupied_;
  return pool_->release(std::exchange(s.handle, net::PacketPool::kNullHandle));
}

bool CyclicQueue::drop(std::uint16_t index) {
  if (slots_.empty()) return false;
  index &= kIndexSpace - 1;
  Slot& s = slots_[index];
  if (!s.occupied || s.index != index) return false;
  s.occupied = false;
  --occupied_;
  pool_->drop(std::exchange(s.handle, net::PacketPool::kNullHandle));
  return true;
}

bool CyclicQueue::has(std::uint16_t index) const { return peek(index) != nullptr; }

void CyclicQueue::clear() {
  for (auto& s : slots_) {
    if (s.occupied) {
      pool_->drop(std::exchange(s.handle, net::PacketPool::kNullHandle));
      s.occupied = false;
    }
  }
  occupied_ = 0;
  newest_.reset();
}

}  // namespace wgtt::ap
