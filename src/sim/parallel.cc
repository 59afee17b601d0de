#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace wgtt::sim {

ParallelEngine::ParallelEngine(const Config& config) : config_(config) {
  if (config_.lookahead <= Time::zero()) {
    throw std::invalid_argument("ParallelEngine lookahead must be positive");
  }
  if (config_.workers < 1) config_.workers = 1;
}

int ParallelEngine::add_domain(Scheduler* sched, std::function<void()> enter,
                               std::function<void()> exit) {
  assert(!running_);
  Domain d;
  d.sched = sched;
  d.enter = std::move(enter);
  d.exit = std::move(exit);
  domains_.push_back(std::move(d));
  return static_cast<int>(domains_.size()) - 1;
}

int ParallelEngine::connect(int src_domain, int dst_domain) {
  assert(!running_);
  assert(src_domain != dst_domain && "a domain talks to itself for free");
  Edge e;
  e.src = src_domain;
  edges_.push_back(std::move(e));
  const int id = static_cast<int>(edges_.size()) - 1;
  domains_[static_cast<std::size_t>(dst_domain)].in_edges.push_back(id);
  return id;
}

void ParallelEngine::post(int edge, Time when, InlineCallback fn,
                          EventCategory cat) {
  Edge& e = edges_[static_cast<std::size_t>(edge)];
  const Time bound =
      domains_[static_cast<std::size_t>(e.src)].sched->now() + config_.lookahead;
  if (when < bound) {
    // The lookahead bound is what makes the lockstep window safe; clamping
    // (rather than delivering early) keeps a buggy caller both safe and
    // deterministic — the clamp is a function of virtual state only.
    lookahead_violations_.fetch_add(1, std::memory_order_relaxed);
    when = bound;
  }
  CrossEvent ev;
  ev.when = when;
  ev.seq = e.next_seq++;
  ev.src = e.src;
  ev.cat = cat;
  ev.fn = std::move(fn);
  e.outbox.push_back(std::move(ev));
}

void ParallelEngine::drain_and_inject(Domain& dom, Time bound_exclusive) {
  for (const int e : dom.in_edges) {
    std::vector<CrossEvent>& inbox = edges_[static_cast<std::size_t>(e)].inbox;
    std::move(inbox.begin(), inbox.end(), std::back_inserter(dom.staged));
    inbox.clear();
  }
  if (dom.staged.empty()) return;
  // Entries this window covers move to the front, sorted; the remainder
  // stays staged for a later window. The order (arrival time, then source
  // domain, then per-edge sequence) is total because (src, seq) is unique
  // per entry — so the sort is deterministic even though std::sort is
  // unstable.
  auto ready_end =
      std::partition(dom.staged.begin(), dom.staged.end(),
                     [&](const CrossEvent& c) { return c.when < bound_exclusive; });
  std::sort(dom.staged.begin(), ready_end,
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto it = dom.staged.begin(); it != ready_end; ++it) {
    // schedule_at acquires the destination seq numbers in sorted order, so
    // the (when, seq) FIFO contract inside the domain reproduces the
    // (when, src, seq) order exactly.
    dom.sched->schedule_at(it->when, std::move(it->fn), it->cat);
    ++dom.injected;
  }
  dom.staged.erase(dom.staged.begin(), ready_end);
}

void ParallelEngine::process_domain(Domain& dom, Time window_end) {
  if (dom.enter) dom.enter();
  drain_and_inject(dom, window_end);
  dom.sched->run_before(window_end);
  if (dom.exit) dom.exit();
}

void ParallelEngine::finish_domain(Domain& dom, Time horizon) {
  // Events exactly at the horizon fire (run_until semantics). Anything
  // they post arrives at >= horizon + lookahead and stays staged for a
  // later run_until call.
  if (dom.enter) dom.enter();
  drain_and_inject(dom, horizon + Time::ns(1));
  dom.sched->run_until(horizon);
  if (dom.exit) dom.exit();
}

void ParallelEngine::run_until(Time horizon) {
  const int nd = num_domains();
  if (nd == 0) return;
  const Time lookahead = config_.lookahead;
  const int workers = std::clamp(config_.workers, 1, nd);
  workers_used_ = workers;
  running_ = true;

  // Lockstep worker pool; the calling thread is worker 0. One barrier per
  // round, and its completion is the only code that runs between rounds:
  // it hands every edge's posts to the destination and advances the
  // window. A message posted during round k is due at W_{k+1} or later
  // (the lookahead bound) and is drained at round k+1's start. A post made
  // outside run_until waits in its outbox for the first barrier; it is due
  // one lookahead past the source clock, which is at or past the first
  // window start, so round 1 still drains it in time.
  std::barrier sync(workers, [this, horizon]() noexcept {
    for (Edge& e : edges_) std::swap(e.outbox, e.inbox);
    window_start_ = std::min(window_start_ + config_.lookahead, horizon);
    ++rounds_;
  });
  // A domain event that throws must not leave pool threads parked at the
  // barrier with joinable std::thread destructors calling std::terminate.
  // The throwing worker records the (first) exception, flags failure, and
  // drops out of the barrier; survivors notice the flag at their next round
  // boundary and exit cleanly. The error is rethrown after the join.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto work = [&](int w) {
    try {
      for (;;) {
        if (failed.load(std::memory_order_acquire)) {
          // Must still count as an arrival for the in-flight phase, or a
          // sibling already parked at this round's barrier waits forever.
          sync.arrive_and_drop();
          return;
        }
        const Time window_start = window_start_;  // stable between barriers
        if (window_start >= horizon) break;
        const Time window_end = std::min(window_start + lookahead, horizon);
        for (int d = w; d < nd; d += workers) {
          process_domain(domains_[static_cast<std::size_t>(d)], window_end);
        }
        sync.arrive_and_wait();
      }
      for (int d = w; d < nd; d += workers) {
        finish_domain(domains_[static_cast<std::size_t>(d)], horizon);
      }
      sync.arrive_and_wait();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      failed.store(true, std::memory_order_release);
      sync.arrive_and_drop();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  running_ = false;
  if (first_error) std::rethrow_exception(first_error);
}

std::uint64_t ParallelEngine::messages_delivered() const {
  std::uint64_t n = 0;
  for (const Domain& d : domains_) n += d.injected;
  return n;
}

}  // namespace wgtt::sim
