// Conservative parallel execution of one simulation run (DESIGN.md §11).
//
// The run is partitioned into domains, each owning a Scheduler (its own
// virtual clock, heap and seq counter). Domains interact only through
// cross-domain messages carried on directed edges, and every such message
// is delayed by at least the engine's lookahead L — the modeled minimum
// cross-domain backhaul/wire latency. That bound makes lockstep windows
// safe: in round k every domain executes its events with when ∈ [W, W+L)
// independently; a message posted by an event at time τ ≥ W arrives at
// τ + (≥ L) ≥ W + L, i.e. never inside the window being executed, so no
// domain can ever receive a message "from the past". A barrier ends the
// round and hands each edge's posts to its destination; at its next window
// start each domain injects the messages that window covers in sorted
// (when, src domain, seq) order, and the window advances by L.
//
// Determinism (the §11.5 proof obligations): window boundaries are pure
// virtual-time arithmetic; a message's (when, src, seq) triple is fixed at
// post time by the sender's deterministic execution; injection sorts by
// that triple before acquiring destination seq numbers; and each domain's
// scheduler executes single-threaded within a round. None of these depend
// on the worker count or on wall-clock interleaving, so `workers = N`
// produces byte-identical runs for every N — the 20-seed sweep in
// tests/parallel_test.cc holds the engine to that.
//
// The engine does not own the domain schedulers (the scenario layer does);
// it owns the edges, the worker pool, and the round loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace wgtt::sim {

class ParallelEngine {
 public:
  struct Config {
    /// Minimum virtual latency of every cross-domain message. Must be > 0;
    /// it is both the lockstep window width and the safety bound post()
    /// enforces.
    Time lookahead = Time::ms(1);
    /// Worker threads driving the domains (round-robin by domain id).
    /// This is a wall-clock knob only: the domain graph is fixed by the
    /// scenario, and results are byte-identical for every worker count.
    /// Clamped to [1, num_domains]; the calling thread is worker 0, so 1
    /// starts no thread.
    int workers = 1;
  };

  explicit ParallelEngine(const Config& config);

  /// Registers a domain. `sched` must outlive the engine and must not be
  /// run by anything else between run_until calls. `enter`/`exit` (both
  /// optional) bracket every execution window of this domain on whichever
  /// worker runs it — the hook for swapping in domain-scoped thread-local
  /// state (e.g. the packet-uid stream) so results stay independent of the
  /// worker count.
  int add_domain(Scheduler* sched, std::function<void()> enter = nullptr,
                 std::function<void()> exit = nullptr);

  /// Creates the directed edge src -> dst and returns its id. All edges
  /// must exist before the first run_until (the edge topology is part of
  /// the scenario, not of execution).
  int connect(int src_domain, int dst_domain);

  /// Posts a cross-domain message: run `fn` in the edge's destination
  /// domain at virtual time `when`. Must be called from code executing in
  /// the edge's source domain, or between run_until calls. `when` must be
  /// at least the source clock plus lookahead; a violating `when` is
  /// clamped up to that bound and counted in lookahead_violations() — the
  /// clamp depends only on virtual state, so even a buggy caller stays
  /// deterministic, but the sweep tests assert the count is zero.
  void post(int edge, Time when, InlineCallback fn,
            EventCategory cat = EventCategory::kBackhaul);

  /// Runs all domains to `horizon` (inclusive, matching
  /// Scheduler::run_until semantics). May be called repeatedly with
  /// increasing horizons; each call spins up the worker pool and joins it
  /// before returning.
  void run_until(Time horizon);

  [[nodiscard]] int num_domains() const {
    return static_cast<int>(domains_.size());
  }
  /// Worker count actually used by the last run_until (config clamped to
  /// the domain count).
  [[nodiscard]] int workers_used() const { return workers_used_; }
  /// Lockstep rounds executed (windows of width L, plus the final
  /// inclusive pass).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Cross-domain messages injected into destination schedulers.
  [[nodiscard]] std::uint64_t messages_delivered() const;
  /// post() calls that violated the lookahead bound (clamped; must be 0).
  [[nodiscard]] std::uint64_t lookahead_violations() const {
    return lookahead_violations_.load(std::memory_order_relaxed);
  }
  /// Total events executed by domain d's scheduler.
  [[nodiscard]] std::uint64_t domain_events(int d) const {
    return domains_[static_cast<std::size_t>(d)].sched->events_executed();
  }

 private:
  /// One cross-domain message: run `fn` in the destination domain at
  /// virtual time `when`. `src` and `seq` are the injection tie-break.
  struct CrossEvent {
    Time when;
    std::uint64_t seq = 0;
    int src = 0;
    EventCategory cat = EventCategory::kBackhaul;
    InlineCallback fn;
  };
  /// Within a round only the source domain's worker touches `next_seq` and
  /// `outbox`, and only the destination's worker touches `inbox`. The
  /// barrier's completion swaps the two vectors between rounds, so a post
  /// made in round k is drained at the start of round k+1.
  struct Edge {
    int src = 0;
    std::uint64_t next_seq = 1;
    std::vector<CrossEvent> outbox;
    std::vector<CrossEvent> inbox;
  };
  struct Domain {
    Scheduler* sched = nullptr;
    std::function<void()> enter;         // optional window brackets
    std::function<void()> exit;
    std::vector<int> in_edges;           // edge ids, ascending creation order
    std::vector<CrossEvent> staged;      // drained but beyond current window
    std::uint64_t injected = 0;
  };

  /// One domain's share of a round: drain in-edges, inject everything with
  /// when < `window_end` in (when, src, seq) order, execute the window.
  void process_domain(Domain& dom, Time window_end);
  /// The final inclusive pass: inject `when <= horizon`, run_until(horizon).
  void finish_domain(Domain& dom, Time horizon);
  void drain_and_inject(Domain& dom, Time bound_exclusive);

  Config config_;
  std::vector<Domain> domains_;
  std::vector<Edge> edges_;
  Time window_start_ = Time::zero();
  int workers_used_ = 1;
  std::uint64_t rounds_ = 0;
  std::atomic<std::uint64_t> lookahead_violations_{0};
  bool running_ = false;
};

}  // namespace wgtt::sim
