// Pool allocator for downlink payloads.
//
// The controller fans every downlink packet out to every in-range AP, and
// each AP parks its copy in a 4096-slot cyclic queue per client (paper
// §3.1.2). Storing a full Packet per ring slot made each queue ~0.5 MB of
// mostly-cold memory, paid at construction for every (AP, client) pair and
// again in cache misses on every put/take. The pool inverts that: ring
// slots hold 4-byte handles, and the packets themselves live in chunks
// allocated on demand — so memory scales with the live backlog (tens to a
// few thousand packets), not with the 12-bit index space times the fan-out
// width.
//
// Handles are refcounted (DESIGN.md §10). A downlink payload travels as a
// Ref: the controller acquires the packet once, and each DownlinkData it
// sends copies the Ref (one add_ref per target AP instead of an N-way Packet
// copy). Destroying a Ref drops its reference, so a message that is lost,
// cut or never handled frees its payload with no bookkeeping at the drop
// site. The cyclic queue is the one holder of raw handles: it takes them
// from a Ref with release() and later either release()s the pool slot —
// moving the Packet out on the last reference, copying while other holders
// remain — or drop()s it without materializing anything (overwrite, stale
// skip, crash wipe). Releasing or dropping a dead handle is a hard program
// error and aborts: a silent double-release would hand the same slot to two
// owners and corrupt payloads far from the bug.
//
// Handles are indices, not pointers: chunk storage never moves, a released
// slot is recycled LIFO, and all operations are O(1). The pool is
// single-threaded by design: each system (one scheduler) owns one pool that
// its controllers, backhaul messages and AP queues share, and the parallel
// engines give every corridor or trial its own system, so no
// synchronization is needed or provided. A pool must outlive every Ref and
// queue that points into it; systems declare it before their backhaul.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace wgtt::net {

class PacketPool {
 public:
  /// Opaque slot index. Stable for the lifetime of the acquisition.
  using Handle = std::uint32_t;
  static constexpr Handle kNullHandle = 0xffffffffu;

  /// One counted reference to a live handle. Copying adds a reference,
  /// destruction drops one, and a default or moved-from Ref holds nothing.
  class Ref {
   public:
    Ref() = default;
    /// Adopts a reference that is already counted (e.g. acquire()'s).
    Ref(PacketPool& pool, Handle h) : pool_(&pool), h_(h) {}
    Ref(const Ref& o) : pool_(o.pool_), h_(o.h_) {
      if (h_ != kNullHandle) pool_->add_ref(h_);
    }
    Ref(Ref&& o) noexcept
        : pool_(o.pool_), h_(std::exchange(o.h_, kNullHandle)) {}
    Ref& operator=(Ref o) noexcept {  // copy-and-swap: self-assignment safe
      std::swap(pool_, o.pool_);
      std::swap(h_, o.h_);
      return *this;
    }
    ~Ref() {
      if (h_ != kNullHandle) pool_->drop(h_);
    }

    const Packet& operator*() const { return *pool_->get(h_); }
    const Packet* operator->() const { return pool_->get(h_); }

    /// Hands the handle and its reference to a holder that tracks them
    /// itself (the cyclic queue); this Ref then holds nothing.
    [[nodiscard]] Handle release() { return std::exchange(h_, kNullHandle); }

   private:
    PacketPool* pool_ = nullptr;
    Handle h_ = kNullHandle;
  };

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Stores `packet` and returns its handle with a reference count of 1.
  /// Grows by one chunk when the freelist is empty; never moves existing
  /// packets.
  [[nodiscard]] Handle acquire(Packet&& packet);

  /// Adds one reference to a live handle (fan-out sharing).
  void add_ref(Handle h);

  /// Removes one reference and returns the packet: moved out of the slot on
  /// the last reference (the slot is then recycled and the handle becomes
  /// invalid), copied while other references remain. Aborts on a dead
  /// handle.
  Packet release(Handle h);

  /// Removes one reference without materializing a Packet — the path for
  /// every "this copy is discarded" case (queue overwrite, crash wipe, a
  /// Ref's destruction). Aborts on a dead handle.
  void drop(Handle h);

  /// Current reference count of a handle (0 = free slot).
  [[nodiscard]] std::uint32_t ref_count(Handle h) const;

  /// Packet behind a live handle. No liveness check beyond bounds — callers
  /// (the cyclic queue) track occupancy themselves.
  [[nodiscard]] const Packet* get(Handle h) const;
  [[nodiscard]] Packet* get(Handle h);

  /// Live acquisitions (distinct slots, regardless of reference counts).
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// Sum of reference counts over all live handles; the `net.pool_refs`
  /// gauge. Equals in_use() when nothing is shared.
  [[nodiscard]] std::size_t total_refs() const { return total_refs_; }
  /// Total slots ever allocated (chunks * chunk size).
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkSize;
  }
  /// High-water mark of in_use() — how deep the backlog ever got.
  [[nodiscard]] std::size_t peak_in_use() const { return peak_in_use_; }

 private:
  static constexpr std::size_t kChunkSize = 256;

  /// Aborts unless `h` names a slot with a nonzero reference count. An
  /// explicit check rather than assert(): release-mode builds must catch a
  /// double-release too, and the death test pins the behaviour.
  void check_live(Handle h, const char* op) const;

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  // Reference counts, parallel to chunks_ (0 = free slot).
  std::vector<std::unique_ptr<std::uint32_t[]>> refs_;
  std::vector<Handle> free_;  // LIFO: hot slots are reused first
  std::size_t in_use_ = 0;
  std::size_t total_refs_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace wgtt::net
