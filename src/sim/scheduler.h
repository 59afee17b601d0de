// Discrete-event simulation core.
//
// A Scheduler owns a virtual clock and a min-heap of (time, callback)
// events. Everything in the WGTT simulation — frame transmissions, backhaul
// deliveries, beacon timers, TCP retransmission timeouts, vehicle position
// updates — is an event on one Scheduler, which guarantees a single total
// order of actions and therefore exact reproducibility.
//
// Hot-path layout (DESIGN.md §8): the heap orders 24-byte POD keys
// (when, seq, slot) in a 4-ary array heap; the callbacks themselves live in
// a slab of move-only InlineCallback slots addressed by the key, so nothing
// heap-allocates for typical captures and nothing is copied on pop.
// Cancellation is O(1) and generation-stamped: an EventId encodes
// (slot, generation), cancel() disarms the slot if the generation still
// matches, and the stale heap key is discarded when it surfaces. The
// (when, seq) FIFO tie-break is a hard contract — every seeded run is
// byte-identical to the pre-rewrite engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/profiler.h"
#include "util/units.h"

namespace wgtt::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes (slot << 32 | generation); the default value 0 never names a
/// live event, so a default-constructed id is always safe to cancel.
enum class EventId : std::uint64_t {};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must be >= now()). `cat` is
  /// the profiler attribution label (a one-byte tag, free when no profiler
  /// is attached); untagged call sites land in kOther.
  EventId schedule_at(Time when, InlineCallback fn,
                      EventCategory cat = EventCategory::kOther);

  /// Schedules `fn` `delay` after now(). Negative delays clamp to now().
  EventId schedule_in(Time delay, InlineCallback fn,
                      EventCategory cat = EventCategory::kOther);

  /// Cancels a pending event in O(1), releasing its captures immediately.
  /// Cancelling an already-fired, already-cancelled, unknown, or
  /// default-constructed id is a no-op (timeout races make that the common
  /// case) — the generation stamp makes the check exact, so stale ids never
  /// leak memory or skew pending().
  void cancel(EventId id);

  /// Runs events until the queue is empty or the clock would pass `limit`;
  /// the clock ends at min(limit, last event time). Events scheduled exactly
  /// at `limit` fire.
  void run_until(Time limit);

  /// Runs events with `when` strictly below `limit`; events exactly at
  /// `limit` stay pending and the clock is NOT advanced past the last
  /// executed event. This is the parallel engine's window primitive
  /// (DESIGN.md §11): a domain executes [window start, window end) and an
  /// event at the window edge must wait — the next window's drain may
  /// still inject messages at that exact time ahead of it in (when, seq)
  /// order.
  void run_before(Time limit);

  /// Runs until no events remain.
  void run_all();

  /// Executes exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Attaches (or, with nullptr, detaches) a wall-time profiler. While one
  /// is attached, step() takes ONE ProfileClock read per event and charges
  /// the elapsed time since the previous read — heap pop, cancelled-key
  /// skips, the callback, and the run_until loop glue in between — to the
  /// event's category. Chaining timestamps this way (instead of bracketing
  /// each event with two reads) halves the measurement cost and makes the
  /// per-category totals sum to essentially all of run_until's wall time;
  /// the price is that inter-event engine overhead lands on the *next*
  /// event's category. Virtual time is untouched either way: profiling is
  /// pure observation and seeded runs stay deterministic.
  void set_profiler(EventProfiler* profiler) {
    profiler_ = profiler;
    if (profiler != nullptr) profile_mark_ = ProfileClock::now();
  }
  [[nodiscard]] EventProfiler* profiler() const { return profiler_; }

 private:
  // POD heap key; callbacks live in slots_, addressed by `slot`.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;   // tie-break: FIFO among same-time events
    std::uint32_t slot;  // index into slots_
  };
  struct Slot {
    InlineCallback fn;
    std::uint64_t seq = 0;          // seq of the currently armed event
    std::uint32_t generation = 0;   // bumped on every arm; id must match
    EventCategory cat = EventCategory::kOther;  // profiler attribution
    bool armed = false;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes heap_[0] (swap-with-last + sift) and recycles its slot.
  void pop_top();

  // 4-ary: one level shallower than binary per ~4x entries, and the child
  // scan stays within one cache line of 24-byte entries.
  static constexpr std::size_t kArity = 4;

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  EventProfiler* profiler_ = nullptr;
  /// ProfileClock ticks at the last profiled read; the next event is
  /// charged the delta from here. Reset on attach.
  std::uint64_t profile_mark_ = 0;
};

/// One-shot restartable timer bound to a Scheduler. Used for the switching
/// protocol's 30 ms ack timeout and for TCP's RTO — both restart constantly,
/// so start() must not rebuild the user callback: `on_fire_` is constructed
/// once, and each start() schedules only an 8-byte trampoline (stored inline
/// in the scheduler slot, no allocation).
class Timer {
 public:
  /// `cat` tags every firing of this timer for the event profiler; the
  /// kTimer default fits transport/app timers, protocol timers pass their
  /// own layer's category.
  Timer(Scheduler& sched, InlineCallback on_fire,
        EventCategory cat = EventCategory::kTimer)
      : sched_(sched), on_fire_(std::move(on_fire)), cat_(cat) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer `delay` from now; a previously armed instance is
  /// cancelled first.
  void start(Time delay);
  void cancel();
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  struct Fire {  // trampoline: the only thing scheduled per start()
    Timer* timer;
    void operator()() const {
      timer->armed_ = false;
      timer->on_fire_();
    }
  };

  Scheduler& sched_;
  InlineCallback on_fire_;
  EventId pending_{};
  EventCategory cat_;
  bool armed_ = false;
};

}  // namespace wgtt::sim
