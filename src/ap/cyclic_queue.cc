#include "ap/cyclic_queue.h"

#include <utility>

namespace wgtt::ap {

using net::PacketPool;

CyclicQueue::CyclicQueue(PacketPool* pool) : pool_(pool) {}
// The slot ring is allocated on the first put(): every AP keeps one queue
// per registered client, and at city scale (1024 APs x 256 clients) eager
// 16 KB rings would cost ~4 GB while only the queues near each client ever
// see a packet.

CyclicQueue::~CyclicQueue() {
  // Hand occupied slots back so the shared pool's accounting stays exact.
  clear();
}

void CyclicQueue::put(std::uint16_t index, net::Packet packet) {
  put_handle(index, pool_->acquire(std::move(packet)));
}

void CyclicQueue::put_handle(std::uint16_t index, PacketPool::Handle handle) {
  if (slots_.empty()) slots_.assign(kIndexSpace, PacketPool::kNullHandle);
  index &= kIndexSpace - 1;
  PacketPool::Handle& slot = slots_[index];
  if (slot == PacketPool::kNullHandle) {
    ++occupied_;
  } else {
    ++overwrites_;
    // The displaced occupant may be shared with other queues: drop this
    // queue's reference, never mutate the pool slot in place.
    pool_->drop(slot);
  }
  slot = handle;
  newest_ = index;
}

const net::Packet* CyclicQueue::peek(std::uint16_t index) const {
  if (slots_.empty()) return nullptr;
  const PacketPool::Handle h = slots_[index & (kIndexSpace - 1)];
  return h == PacketPool::kNullHandle ? nullptr : pool_->get(h);
}

std::optional<net::Packet> CyclicQueue::take(std::uint16_t index) {
  if (slots_.empty()) return std::nullopt;
  const PacketPool::Handle h = std::exchange(
      slots_[index & (kIndexSpace - 1)], PacketPool::kNullHandle);
  if (h == PacketPool::kNullHandle) return std::nullopt;
  --occupied_;
  return pool_->release(h);
}

bool CyclicQueue::drop(std::uint16_t index) {
  if (slots_.empty()) return false;
  const PacketPool::Handle h = std::exchange(
      slots_[index & (kIndexSpace - 1)], PacketPool::kNullHandle);
  if (h == PacketPool::kNullHandle) return false;
  --occupied_;
  pool_->drop(h);
  return true;
}

bool CyclicQueue::has(std::uint16_t index) const { return peek(index) != nullptr; }

void CyclicQueue::clear() {
  for (PacketPool::Handle& h : slots_) {
    if (h != PacketPool::kNullHandle) {
      pool_->drop(std::exchange(h, PacketPool::kNullHandle));
    }
  }
  occupied_ = 0;
  newest_.reset();
}

}  // namespace wgtt::ap
