#include "sim/scheduler.h"

#include <cassert>
#include <utility>

namespace wgtt::sim {

namespace {
constexpr std::uint64_t make_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<std::uint64_t>(slot) << 32) | generation;
}
}  // namespace

EventId Scheduler::schedule_at(Time when, InlineCallback fn,
                               EventCategory cat) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  s.cat = cat;
  s.armed = true;
  // Generation stamps make stale EventIds inert. A slot would need 2^32
  // re-arms between an id's issue and its cancel for a false match; ids are
  // held for at most one timeout interval, so that is unreachable.
  const std::uint32_t gen = ++s.generation;
  ++live_;

  heap_.push_back(HeapEntry{when, seq, slot});
  sift_up(heap_.size() - 1);
  return EventId{make_id(slot, gen)};
}

EventId Scheduler::schedule_in(Time delay, InlineCallback fn,
                               EventCategory cat) {
  if (delay < Time::zero()) delay = Time::zero();
  return schedule_at(now_ + delay, std::move(fn), cat);
}

void Scheduler::cancel(EventId id) {
  const auto raw = static_cast<std::uint64_t>(id);
  const auto slot = static_cast<std::uint32_t>(raw >> 32);
  const auto gen = static_cast<std::uint32_t>(raw);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.armed || s.generation != gen) return;  // fired, cancelled, or stale
  s.armed = false;
  s.fn.reset();  // release captures now; the heap key is dropped lazily
  --live_;
}

bool Scheduler::step() {
  // Profiled path: one ProfileClock read per event, charged as the delta
  // from profile_mark_ (stamped at attach and advanced per event). Covers
  // heap pop, cancelled-key skips, the callback, and loop glue since the
  // previous event; zero clock reads when no profiler is attached.
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    pop_top();
    Slot& s = slots_[top.slot];
    if (!s.armed) continue;  // cancelled; slot already recycled by pop_top
    assert(s.seq == top.seq && "slot re-armed while its heap key was live");
    // Move the callback out before invoking: the event may schedule (growing
    // slots_) or cancel, so the slot must be fully released first.
    InlineCallback fn = std::move(s.fn);
    const EventCategory cat = s.cat;
    s.armed = false;
    --live_;
    now_ = top.when;
    ++executed_;
    fn();
    if (profiler_ != nullptr) profiler_->record_since(cat, profile_mark_);
    return true;
  }
  return false;
}

void Scheduler::run_until(Time limit) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (!slots_[top.slot].armed) {  // cancelled: drop the stale key
      pop_top();
      continue;
    }
    if (top.when > limit) break;
    step();
  }
  if (now_ < limit) now_ = limit;
}

void Scheduler::run_before(Time limit) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (!slots_[top.slot].armed) {  // cancelled: drop the stale key
      pop_top();
      continue;
    }
    if (top.when >= limit) break;
    step();
  }
  // The clock deliberately stays at the last executed event: a later window
  // may inject cross-domain events anywhere in [now, its window end), and
  // schedule_at must not clamp them forward.
}

void Scheduler::run_all() {
  while (step()) {
  }
}

void Scheduler::pop_top() {
  free_slots_.push_back(heap_.front().slot);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::sift_up(std::size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void Scheduler::sift_down(std::size_t i) {
  const HeapEntry moving = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void Timer::start(Time delay) {
  cancel();
  armed_ = true;
  pending_ = sched_.schedule_in(delay, Fire{this}, cat_);
}

void Timer::cancel() {
  if (armed_) {
    sched_.cancel(pending_);
    armed_ = false;
  }
}

}  // namespace wgtt::sim
