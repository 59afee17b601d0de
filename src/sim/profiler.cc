#include "sim/profiler.h"

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

EventProfiler::EventProfiler()
    : hist_{{{kLo, kHi, kN}, {kLo, kHi, kN}, {kLo, kHi, kN}, {kLo, kHi, kN},
             {kLo, kHi, kN}, {kLo, kHi, kN}, {kLo, kHi, kN}}} {}

void EventProfiler::record(EventCategory cat, std::uint64_t ns) {
  const auto i = static_cast<std::size_t>(cat);
  ++cells_[i].events;
  cells_[i].ns += ns;
  hist_[i].observe_single_writer(static_cast<double>(ns) / 1e3);
}

std::uint64_t EventProfiler::events(EventCategory cat) const {
  return cells_[static_cast<std::size_t>(cat)].events;
}

std::uint64_t EventProfiler::total_ns(EventCategory cat) const {
  return cells_[static_cast<std::size_t>(cat)].ns;
}

std::uint64_t EventProfiler::total_events() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.events;
  return n;
}

std::uint64_t EventProfiler::total_ns() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.ns;
  return n;
}

void EventProfiler::merge_from(const EventProfiler& other) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].events += other.cells_[i].events;
    cells_[i].ns += other.cells_[i].ns;
    hist_[i].merge_from(other.hist_[i]);
  }
}

void EventProfiler::flush_to(obs::MetricsRegistry& registry) const {
  for (int i = 0; i < kNumEventCategories; ++i) {
    const auto cat = static_cast<EventCategory>(i);
    const std::string base = "sim.profile." + std::string(to_string(cat));
    registry.histogram(base + "_us", kLo, kHi, kN)
        .merge_from(hist_[static_cast<std::size_t>(i)]);
    registry.counter(base + "_ns").inc(cells_[static_cast<std::size_t>(i)].ns);
  }
  registry.counter("sim.profile.events").inc(total_events());
}

}  // namespace wgtt::sim
