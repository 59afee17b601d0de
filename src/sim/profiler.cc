#include "sim/profiler.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

namespace wgtt::sim {

namespace {
constexpr double kLo = EventProfiler::kHistLoUs;
constexpr double kHi = EventProfiler::kHistHiUs;
constexpr std::size_t kN = EventProfiler::kHistBuckets;
}  // namespace

std::string_view to_string(EventCategory cat) {
  switch (cat) {
    case EventCategory::kChannel: return "channel";
    case EventCategory::kMacTx: return "mac_tx";
    case EventCategory::kMacRx: return "mac_rx";
    case EventCategory::kBackhaul: return "backhaul";
    case EventCategory::kControl: return "control";
    case EventCategory::kTimer: return "timer";
    case EventCategory::kOther: return "other";
  }
  return "?";
}

double ProfileClock::ns_per_tick() {
#if defined(__x86_64__)
  // The ratio of the two clocks' advances over a ~2 ms spin. Each end is a
  // steady_clock read bracketed by two TSC reads, the tightest bracket of a
  // few: a preemption inside a bracket widens it and loses to the others,
  // and both clocks keep running across preemptions between brackets.
  using Steady = std::chrono::steady_clock;
  struct Stamp {
    Steady::time_point steady;
    std::uint64_t tsc_mid = 0;
  };
  const auto stamp = [] {
    Stamp best;
    std::uint64_t best_width = std::numeric_limits<std::uint64_t>::max();
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t before = now();
      const Steady::time_point t = Steady::now();
      const std::uint64_t width = now() - before;
      if (width < best_width) {
        best_width = width;
        best = {t, before + width / 2};
      }
    }
    return best;
  };
  static const double scale = [&] {
    const Stamp a = stamp();
    while (Steady::now() - a.steady < std::chrono::milliseconds(2)) {
    }
    const Stamp b = stamp();
    return std::chrono::duration<double, std::nano>(b.steady - a.steady)
               .count() /
           static_cast<double>(b.tsc_mid - a.tsc_mid);
  }();
  return scale;
#else
  return 1.0;
#endif
}

EventProfiler::EventProfiler(double ns_per_tick)
    : ns_per_tick_(ns_per_tick),
      buckets_per_tick_(ns_per_tick * static_cast<double>(kN) /
                        ((kHi - kLo) * 1e3)) {}

std::uint64_t EventProfiler::events(EventCategory cat) const {
  return cells_[static_cast<std::size_t>(cat)].events;
}

std::uint64_t EventProfiler::total_ns(EventCategory cat) const {
  return static_cast<std::uint64_t>(std::llround(
      static_cast<double>(cells_[static_cast<std::size_t>(cat)].ticks) *
      ns_per_tick_));
}

std::uint64_t EventProfiler::total_events() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.events;
  return n;
}

std::uint64_t EventProfiler::total_ns() const {
  std::uint64_t n = 0;
  for (int i = 0; i < kNumEventCategories; ++i) {
    n += total_ns(static_cast<EventCategory>(i));
  }
  return n;
}

void EventProfiler::merge_from(const EventProfiler& other) {
  if (other.ns_per_tick_ != ns_per_tick_) {
    throw std::invalid_argument("EventProfiler::merge_from: tick scales differ");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& c = cells_[i];
    const Cell& o = other.cells_[i];
    c.events += o.events;
    c.ticks += o.ticks;
    c.min_ticks = std::min(c.min_ticks, o.min_ticks);
    c.max_ticks = std::max(c.max_ticks, o.max_ticks);
    for (std::size_t b = 0; b < c.buckets.size(); ++b) c.buckets[b] += o.buckets[b];
  }
}

void EventProfiler::flush_to(obs::MetricsRegistry& registry) const {
  const double us_per_tick = ns_per_tick_ / 1e3;
  for (int i = 0; i < kNumEventCategories; ++i) {
    const auto cat = static_cast<EventCategory>(i);
    const Cell& c = cells_[static_cast<std::size_t>(i)];
    const std::string base = "sim.profile." + std::string(to_string(cat));
    obs::Histogram& h = registry.histogram(base + "_us", kLo, kHi, kN);
    if (c.events > 0) {
      h.add_binned(0, std::span(c.buckets).first(kN), c.buckets[kN],
                   static_cast<double>(c.ticks) * us_per_tick,
                   static_cast<double>(c.min_ticks) * us_per_tick,
                   static_cast<double>(c.max_ticks) * us_per_tick);
    }
    registry.counter(base + "_ns").inc(total_ns(cat));
  }
  registry.counter("sim.profile.events").inc(total_events());
}

}  // namespace wgtt::sim
