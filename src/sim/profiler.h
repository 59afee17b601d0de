// Event-kind profiler for the scheduler hot path (DESIGN.md §6.4).
//
// Every scheduled event carries a one-byte EventCategory chosen at the
// call site (channel sampling, MAC tx/rx, backhaul delivery, control
// handling, timer fires). The tag itself is free and always present; the
// *measurement* is opt-in: only when an EventProfiler is attached does
// Scheduler::step() take one ProfileClock read per event and attribute the
// ticks since the previous read to the event's category. With no profiler
// attached the scheduler pays a single pointer compare per event and
// seeded runs stay byte-identical — profiling never perturbs virtual time,
// only observes wall time.
//
// The profile answers the question ROADMAP item 3 (SIMD channel kernel,
// parallel event loop) depends on: where do the ~0.5M events/sec actually
// go? bench_perf_engine prints the per-kind breakdown and run_drive
// exports it as `sim.profile.*` instruments in the metrics snapshot.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "obs/metrics.h"

namespace wgtt::sim {

/// Attribution label for one scheduled event. The named categories mirror
/// the simulator's layers; kOther is the default for call sites that carry
/// no tag (accuracy probes, scenario glue).
enum class EventCategory : std::uint8_t {
  kChannel,   // CSI sampling / probing / channel scan-and-follow
  kMacTx,     // AP-side transmission: contention, A-MPDU tx, pump, beacons
  kMacRx,     // medium delivery: airtime end, decode, on_heard fan-out
  kBackhaul,  // wired message delivery (controller <-> APs, server wire)
  kControl,   // switching protocol handling, liveness, fault scripts
  kTimer,     // transport timers: TCP RTO, UDP pacing, app ticks
  kOther,     // untagged (scenario glue, accuracy probes)
};

/// Total number of categories; values are contiguous from 0. Tests iterate
/// this to catch a new category left out of to_string.
inline constexpr int kNumEventCategories = 7;

[[nodiscard]] std::string_view to_string(EventCategory cat);

/// The profiler's clock. On x86-64 it reads the invariant TSC, about half
/// the cost of a steady_clock read; ticks convert to nanoseconds with a
/// scale calibrated once per process against steady_clock. Elsewhere a
/// tick is a steady_clock nanosecond. The platform picks at build time.
struct ProfileClock {
  [[nodiscard]] static std::uint64_t now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  /// Nanoseconds per tick; the first call calibrates (~2 ms).
  [[nodiscard]] static double ns_per_tick();
};

/// Wall-time accumulator per event category. Owned by whoever drives the
/// run (the bench harness); attached to a Scheduler via set_profiler().
///
/// Per event, record() only adds: the tick total and one integer bucket
/// count, the bucket found by one multiply. flush_to() converts ticks to
/// nanoseconds and folds the counts into fixed-layout registry histograms
/// (`sim.profile.<cat>_us`: microseconds, 0-50 us in 0.25 us buckets —
/// comfortably around the ~2 us median event).
class EventProfiler {
 public:
  /// Shared bucket layout of the per-category histograms and their
  /// registry counterparts (`sim.profile.<cat>_us`).
  static constexpr double kHistLoUs = 0.0;
  static constexpr double kHistHiUs = 50.0;
  static constexpr std::size_t kHistBuckets = 200;

  /// `ns_per_tick` scales the ticks record() takes; tests pass 1.0 to
  /// record nanoseconds.
  explicit EventProfiler(double ns_per_tick = ProfileClock::ns_per_tick());

  /// Records one event of `cat` that took `ticks` clock ticks.
  void record(EventCategory cat, std::uint64_t ticks) {
    Cell& c = cells_[static_cast<std::size_t>(cat)];
    ++c.events;
    c.ticks += ticks;
    c.min_ticks = std::min(c.min_ticks, ticks);
    c.max_ticks = std::max(c.max_ticks, ticks);
    // The clamp keeps the conversions exact and non-negative; anything
    // that large lands in the overflow slot anyway.
    const auto t = static_cast<std::int64_t>(std::min(ticks, kTickClamp));
    const auto b = static_cast<std::size_t>(static_cast<double>(t) *
                                            buckets_per_tick_);
    ++c.buckets[std::min(b, kHistBuckets)];
  }

  /// Reads the clock and charges the ticks since `mark` to `cat`, then
  /// advances `mark`: all a profiled Scheduler::step() adds per event.
  void record_since(EventCategory cat, std::uint64_t& mark) {
    const std::uint64_t now = ProfileClock::now();
    record(cat, now - mark);
    mark = now;
  }

  [[nodiscard]] std::uint64_t events(EventCategory cat) const;
  [[nodiscard]] std::uint64_t total_ns(EventCategory cat) const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t total_ns() const;

  /// Folds another profiler's cells into this one; both must share one
  /// tick scale. The parallel engine attaches one profiler per domain
  /// scheduler (each scheduler is stepped by exactly one worker at a time,
  /// so recording stays single-writer) and merges them in ascending domain
  /// order after the run — the merged totals keep bench_perf_engine's
  /// coverage and overhead gates meaningful when the run used several
  /// threads.
  void merge_from(const EventProfiler& other);

  /// Exports the profile into `registry`:
  ///   sim.profile.<cat>_us   histogram  per-event wall microseconds
  ///   sim.profile.<cat>_ns   counter    total wall nanoseconds
  ///   sim.profile.events     counter    events profiled across categories
  /// Wall-clock values vary host to host, so callers only flush when the
  /// profiler was explicitly enabled (the record_perf rule).
  void flush_to(obs::MetricsRegistry& registry) const;

 private:
  static constexpr std::uint64_t kTickClamp = std::uint64_t{1} << 52;

  struct Cell {
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t min_ticks = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ticks = 0;
    /// kHistBuckets in-range buckets, then the overflow slot.
    std::array<std::uint64_t, kHistBuckets + 1> buckets{};
  };

  double ns_per_tick_;
  double buckets_per_tick_;
  std::array<Cell, kNumEventCategories> cells_{};
};

}  // namespace wgtt::sim
