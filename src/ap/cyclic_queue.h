// The per-client cyclic queue (paper §3.1.2, Figure 7).
//
// The controller fans every downlink packet out to all in-range APs tagged
// with a 12-bit index number that increments per packet per client. Each AP
// stores packets in a ring indexed by that number. Only the serving AP
// drains the ring toward the radio; the others keep accumulating, so that
// on a switch the new AP already holds the backlog and can resume from any
// index k it is told in start(c, k) — no packets need to cross the backhaul
// at switch time. New packets for a slot simply overwrite what an old index
// left behind (the ring is sized to the whole 12-bit space, so overwrite
// only happens 4096 packets later, far beyond any realistic backlog).
//
// Storage: each ring slot is a 4-byte net::PacketPool handle, with
// kNullHandle marking an empty slot — the 4096-entry ring costs 16 KB
// regardless of packet size, and packet memory scales with the live backlog
// via the pool (see packet_pool.h). The ring itself is allocated lazily on
// the first put(), so (AP, client) queues that never receive a packet cost
// a few pointers. Every queue stores into a pool it is given: in a system,
// the one system-wide payload pool the controller's fan-out acquires into.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"

namespace wgtt::ap {

class CyclicQueue {
 public:
  static constexpr std::uint16_t kIndexSpace = 1u << 12;  // m = 12

  /// `pool` backs the packet storage and must outlive the queue.
  explicit CyclicQueue(net::PacketPool* pool);
  ~CyclicQueue();

  CyclicQueue(CyclicQueue&&) = default;
  CyclicQueue& operator=(CyclicQueue&&) = default;

  /// Stores `packet` under `index` (overwrites any stale occupant).
  void put(std::uint16_t index, net::Packet packet);

  /// Stores an already-pooled handle under `index`, taking ownership of one
  /// reference (the fan-out path: a DownlinkData payload's Ref::release()).
  /// The handle must belong to this queue's pool. An overwritten occupant's
  /// reference is dropped, never copied.
  void put_handle(std::uint16_t index, net::PacketPool::Handle handle);

  /// Packet at `index`, if that exact index is present.
  [[nodiscard]] const net::Packet* peek(std::uint16_t index) const;

  /// Removes and returns the packet at `index`. Moves out of the pool slot
  /// when this queue held the last reference; copies while other queues
  /// still share the handle.
  std::optional<net::Packet> take(std::uint16_t index);

  /// Removes the packet at `index` without materializing it (the stale-drop
  /// path). Returns whether a slot was dropped.
  bool drop(std::uint16_t index);

  [[nodiscard]] bool has(std::uint16_t index) const;

  /// Number of occupied slots.
  [[nodiscard]] std::size_t occupancy() const { return occupied_; }

  /// Highest index ever stored (newest packet), if any; used to measure
  /// backlog depth in the queue microbenchmarks.
  [[nodiscard]] std::optional<std::uint16_t> newest() const { return newest_; }

  /// put() calls that displaced an undrained occupant — the ring lapped the
  /// drain (or a non-serving AP accumulated a full 12-bit lap), so a packet
  /// was silently lost. Nonzero here is the signal the paper's "4096 slots
  /// is far beyond any realistic backlog" sizing argument has broken down.
  [[nodiscard]] std::uint64_t overwrites() const { return overwrites_; }

  /// Drops every occupied slot's reference back to the pool (crash wipe:
  /// no packets are materialized; handles shared with other queues stay
  /// live there).
  void clear();

 private:
  net::PacketPool* pool_;
  std::vector<net::PacketPool::Handle> slots_;  // kNullHandle = empty
  std::size_t occupied_ = 0;
  std::optional<std::uint16_t> newest_;
  std::uint64_t overwrites_ = 0;
};

}  // namespace wgtt::ap
