// Parallel engine tests (DESIGN.md §11): the scheduler's window primitives,
// conservative lockstep determinism on synthetic domain graphs (posts across
// run_until call boundaries included), and the headline contract —
// run_parallel_city is byte-identical (whole wgtt.metrics.v1 snapshots, exact
// per-client Mbps) across worker counts, 20 seeds deep. `--parallel-workers
// N` is a wall-clock knob, never a results knob.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/parallel_city.h"
#include "sim/parallel.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace wgtt {
namespace {

// --- scheduler window primitives -------------------------------------------

TEST(SchedulerWindowTest, RunBeforeIsExclusiveAndKeepsClockUsable) {
  sim::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::ms(1), [&order] { order.push_back(1); });
  sched.schedule_at(Time::ms(2), [&order] { order.push_back(2); });
  sched.run_before(Time::ms(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  // The clock stopped at the last executed event, so a later window may
  // still inject work anywhere past it — including before the 2 ms event.
  sched.schedule_at(Time::ms(1) + Time::micros(500),
                    [&order] { order.push_back(3); });
  sched.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// --- profiler merge --------------------------------------------------------

TEST(ProfilerMergeTest, MergeFromAddsCellsAndHistograms) {
  // A 1 ns tick: record() takes nanoseconds.
  sim::EventProfiler a(1.0);
  sim::EventProfiler b(1.0);
  a.record(sim::EventCategory::kMacTx, 1500);
  a.record(sim::EventCategory::kChannel, 500);
  b.record(sim::EventCategory::kMacTx, 2500);
  b.record(sim::EventCategory::kTimer, 1000);
  a.merge_from(b);
  EXPECT_EQ(a.events(sim::EventCategory::kMacTx), 2u);
  EXPECT_EQ(a.total_ns(sim::EventCategory::kMacTx), 4000u);
  EXPECT_EQ(a.total_events(), 4u);
  EXPECT_EQ(a.total_ns(), 5500u);
  obs::MetricsRegistry reg;
  a.flush_to(reg);
  const obs::Histogram* mac_tx = reg.find_histogram("sim.profile.mac_tx_us");
  ASSERT_NE(mac_tx, nullptr);
  EXPECT_EQ(mac_tx->count(), 2u);
  EXPECT_EQ(mac_tx->bucket_count(6), 1u);   // 1.5 us: [1.5, 1.75)
  EXPECT_EQ(mac_tx->bucket_count(10), 1u);  // 2.5 us: [2.5, 2.75)
  EXPECT_DOUBLE_EQ(mac_tx->sum(), 4.0);
  EXPECT_DOUBLE_EQ(mac_tx->min(), 1.5);
  EXPECT_DOUBLE_EQ(mac_tx->max(), 2.5);
  EXPECT_EQ(reg.find_histogram("sim.profile.timer_us")->count(), 1u);
  EXPECT_EQ(reg.find_counter("sim.profile.mac_tx_ns")->value(), 4000u);
  EXPECT_EQ(reg.find_counter("sim.profile.events")->value(), 4u);
}

// --- synthetic domain graph ------------------------------------------------

struct PingPongRun {
  // One log per domain: each is appended only by the worker executing that
  // domain, so the runs are data-race free at any worker count.
  std::vector<std::string> log_a;
  std::vector<std::string> log_b;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
};

PingPongRun run_ping_pong(int workers) {
  PingPongRun r;
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ParallelEngine::Config cfg;
  cfg.lookahead = Time::ms(1);
  cfg.workers = workers;
  sim::ParallelEngine eng(cfg);
  const int da = eng.add_domain(&a);
  const int db = eng.add_domain(&b);
  const int ab = eng.connect(da, db);
  const int ba = eng.connect(db, da);

  std::function<void()> ping;
  std::function<void()> pong;
  ping = [&] {
    r.log_a.push_back("a@" + std::to_string(a.now().to_seconds()));
    if (a.now() < Time::ms(8)) {
      // Two messages per hop: one due next window, one staged 2.5 windows
      // out — exercises the partition between ready and future entries.
      eng.post(ab, a.now() + Time::ms(1), [&] { pong(); });
      eng.post(ab, a.now() + Time::ms(2) + Time::micros(500), [&] { pong(); });
    }
  };
  pong = [&] {
    r.log_b.push_back("b@" + std::to_string(b.now().to_seconds()));
    if (b.now() < Time::ms(8)) {
      eng.post(ba, b.now() + Time::ms(1), [&] { ping(); });
    }
  };
  a.schedule_at(Time::micros(500), [&] { ping(); });
  eng.run_until(Time::ms(12));
  r.rounds = eng.rounds();
  r.messages = eng.messages_delivered();
  r.events = eng.domain_events(0) + eng.domain_events(1);
  return r;
}

TEST(ParallelEngineTest, PingPongIdenticalAcrossWorkerCounts) {
  const PingPongRun one = run_ping_pong(1);
  ASSERT_FALSE(one.log_a.empty());
  ASSERT_FALSE(one.log_b.empty());
  EXPECT_GT(one.messages, 10u);
  const PingPongRun two = run_ping_pong(2);
  EXPECT_EQ(one.log_a, two.log_a);
  EXPECT_EQ(one.log_b, two.log_b);
  EXPECT_EQ(one.rounds, two.rounds);
  EXPECT_EQ(one.messages, two.messages);
  EXPECT_EQ(one.events, two.events);
}

struct RingRun {
  std::array<std::vector<std::string>, 3> logs;  // one per domain
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t violations = 0;
};

// Three domains in a ring (d -> d+1 mod 3), driven across three run_until
// calls. Two posts cross a call boundary: one made before the first call,
// and one made by an event exactly at the first horizon. Each arriving
// message is logged and forwarded around the ring until 30 ms.
RingRun run_ring(int workers) {
  RingRun r;
  std::array<sim::Scheduler, 3> sched;
  sim::ParallelEngine eng(sim::ParallelEngine::Config{
      .lookahead = Time::ms(1), .workers = workers});
  std::array<int, 3> out{};
  for (sim::Scheduler& s : sched) eng.add_domain(&s);
  for (int d = 0; d < 3; ++d) out[d] = eng.connect(d, (d + 1) % 3);

  std::function<void(int, const char*)> hop = [&](int d, const char* tag) {
    const Time now = sched[d].now();
    r.logs[d].push_back(std::string(tag) + "@" +
                        std::to_string(now.to_millis()));
    if (now >= Time::ms(30)) return;
    const int next = (d + 1) % 3;
    // Per-domain delays: hops land both on and off window edges.
    eng.post(out[d], now + Time::ms(1) + Time::micros(250 * d),
             [&hop, next, tag] { hop(next, tag); });
  };
  eng.post(out[0], Time::ms(1), [&hop] { hop(1, "pre"); });
  sched[2].schedule_at(Time::ms(5), [&] {
    eng.post(out[2], Time::ms(6), [&hop] { hop(0, "edge"); });
  });
  eng.run_until(Time::ms(5));
  eng.run_until(Time::ms(9));
  eng.run_until(Time::ms(40));
  r.rounds = eng.rounds();
  r.messages = eng.messages_delivered();
  r.violations = eng.lookahead_violations();
  return r;
}

TEST(ParallelEngineTest, PostsAcrossRunUntilCallsIdenticalAcrossWorkers) {
  const RingRun one = run_ring(1);
  ASSERT_FALSE(one.logs[1].empty());
  EXPECT_EQ(one.logs[1].front(), "pre@" + std::to_string(1.0));
  const auto edge = std::find_if(
      one.logs[0].begin(), one.logs[0].end(),
      [](const std::string& e) { return e.starts_with("edge@"); });
  ASSERT_NE(edge, one.logs[0].end());
  EXPECT_EQ(*edge, "edge@" + std::to_string(6.0));
  // 5 + 4 + 31 windows of 1 ms, plus one inclusive pass per call.
  EXPECT_EQ(one.rounds, 43u);
  EXPECT_EQ(one.messages, 45u);
  EXPECT_EQ(one.violations, 0u);
  for (const int workers : {2, 3}) {
    const RingRun r = run_ring(workers);
    EXPECT_EQ(r.logs, one.logs) << "workers=" << workers;
    EXPECT_EQ(r.rounds, one.rounds) << "workers=" << workers;
    EXPECT_EQ(r.messages, one.messages) << "workers=" << workers;
    EXPECT_EQ(r.violations, 0u) << "workers=" << workers;
  }
}

TEST(ParallelEngineTest, LookaheadViolationClampsDeterministically) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ParallelEngine eng(
      sim::ParallelEngine::Config{.lookahead = Time::ms(1), .workers = 1});
  const int da = eng.add_domain(&a);
  const int db = eng.add_domain(&b);
  const int ab = eng.connect(da, db);
  Time delivered = Time::zero();
  a.schedule_at(Time::ms(2), [&] {
    // `when` equal to the sender's clock: one full lookahead short.
    eng.post(ab, Time::ms(2), [&] { delivered = b.now(); });
  });
  eng.run_until(Time::ms(5));
  EXPECT_EQ(eng.lookahead_violations(), 1u);
  EXPECT_EQ(delivered, Time::ms(3));
}

TEST(ParallelEngineTest, WorkerCountClampsToDomains) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ParallelEngine eng(
      sim::ParallelEngine::Config{.lookahead = Time::ms(1), .workers = 16});
  eng.add_domain(&a);
  eng.add_domain(&b);
  eng.run_until(Time::ms(2));
  EXPECT_EQ(eng.workers_used(), 2);
}

TEST(ParallelEngineTest, DomainExceptionPropagatesWithoutTerminate) {
  // A throwing domain event must surface from run_until as the original
  // exception after the pool joins — not leave workers parked at the
  // barrier so that joinable thread destructors call std::terminate.
  for (const int workers : {1, 2, 3}) {
    sim::Scheduler a;
    sim::Scheduler b;
    sim::Scheduler c;
    sim::ParallelEngine eng(sim::ParallelEngine::Config{
        .lookahead = Time::ms(1), .workers = workers});
    eng.add_domain(&a);
    eng.add_domain(&b);
    eng.add_domain(&c);
    // Keep every domain busy so non-throwing workers are mid-round (or
    // parked at the barrier) when the failure hits.
    std::function<void(sim::Scheduler&)> tick = [&](sim::Scheduler& s) {
      if (s.now() < Time::ms(20)) {
        s.schedule_at(s.now() + Time::micros(100), [&tick, &s] { tick(s); });
      }
    };
    a.schedule_at(Time::micros(100), [&tick, &a] { tick(a); });
    b.schedule_at(Time::micros(100), [&tick, &b] { tick(b); });
    c.schedule_at(Time::ms(5), [] { throw std::runtime_error("domain boom"); });
    EXPECT_THROW(eng.run_until(Time::ms(20)), std::runtime_error)
        << "workers=" << workers;
  }
}

// --- parallel city ----------------------------------------------------------

scenario::ParallelCityConfig small_city(std::uint64_t seed) {
  scenario::ParallelCityConfig cfg;
  cfg.corridors = 2;
  cfg.aps_per_corridor = 4;
  cfg.clients_per_corridor = 1;
  cfg.udp_rate_mbps = 2.0;
  cfg.drive_span_m = 10.0;
  cfg.seed = seed;
  return cfg;
}

TEST(ParallelCityTest, DownlinkSmoke) {
  scenario::ParallelCityConfig cfg = small_city(7);
  cfg.collect_metrics = true;
  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
  EXPECT_EQ(r.domains, 3);
  EXPECT_EQ(r.workers_used, 1);
  ASSERT_EQ(r.client_mbps.size(), 2u);
  // CBR 2 Mbps over a well-covered corridor: the clients should see most
  // of the offered load once bootstrap settles.
  EXPECT_GT(r.mean_mbps, 1.0);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.lookahead_violations, 0u);
  EXPECT_GT(r.messages, 100u);  // every data packet crosses the wire
  EXPECT_GT(r.rounds, 100u);
  EXPECT_GT(r.events_executed, 1000u);
  ASSERT_NE(r.metrics, nullptr);
  const auto* rounds = r.metrics->find_counter("parallel.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value(), r.rounds);
  EXPECT_NE(r.metrics->find_counter("parallel.domain0.events"), nullptr);
  EXPECT_NE(r.metrics->find_counter("parallel.domain2.events"), nullptr);
  // No wall-clock gauges in a default snapshot (the record_perf rule) —
  // that is exactly what lets the sweep below compare bytes across N.
  EXPECT_EQ(r.metrics->find_gauge("sim.events_per_sec"), nullptr);
  EXPECT_EQ(r.metrics->find_gauge("sim.profile.threads_used"), nullptr);
}

TEST(ParallelCityTest, ByteIdenticalAcrossWorkersTwentySeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    scenario::ParallelCityConfig cfg = small_city(seed);
    cfg.collect_metrics = true;
    const scenario::ParallelCityResult ref = scenario::run_parallel_city(cfg);
    ASSERT_NE(ref.metrics, nullptr);
    const std::string ref_json = ref.metrics->to_json();
    ASSERT_EQ(ref.lookahead_violations, 0u) << "seed " << seed;
    ASSERT_EQ(ref.invariant_violations, 0u) << "seed " << seed;
    for (const int workers : {2, 4}) {
      cfg.workers = workers;
      const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
      ASSERT_NE(r.metrics, nullptr);
      // Whole-snapshot byte identity: every counter, gauge and histogram
      // bucket in wgtt.metrics.v1, not a curated subset.
      EXPECT_EQ(r.metrics->to_json(), ref_json)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(r.client_mbps, ref.client_mbps)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(r.switches, ref.switches);
      EXPECT_EQ(r.events_executed, ref.events_executed);
      EXPECT_EQ(r.rounds, ref.rounds);
      EXPECT_EQ(r.messages, ref.messages);
      EXPECT_EQ(r.lookahead_violations, 0u);
      EXPECT_EQ(r.invariant_violations, 0u);
    }
  }
}

TEST(ParallelCityTest, UplinkByteIdenticalAcrossWorkers) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    scenario::ParallelCityConfig cfg = small_city(seed * 31);
    cfg.uplink = true;
    cfg.collect_metrics = true;
    const scenario::ParallelCityResult ref = scenario::run_parallel_city(cfg);
    ASSERT_NE(ref.metrics, nullptr);
    EXPECT_GT(ref.mean_mbps, 0.5);  // uplink data really crossed the wire
    cfg.workers = 2;
    const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
    EXPECT_EQ(r.metrics->to_json(), ref.metrics->to_json()) << "seed " << seed;
    EXPECT_EQ(r.client_mbps, ref.client_mbps) << "seed " << seed;
    EXPECT_EQ(r.lookahead_violations, 0u);
  }
}

// §12 inside §11: each corridor's AP stretch split into two
// ControllerDomains with inter-domain handover live, the whole thing
// running under the parallel engine. The two "domain" notions must
// compose without breaking either contract — byte identity across
// worker counts, zero lookahead violations, zero protocol/ownership
// invariant violations.
TEST(ParallelCityTest, MultiControllerCorridorsByteIdenticalAcrossWorkers) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    scenario::ParallelCityConfig cfg = small_city(seed * 17);
    cfg.aps_per_corridor = 8;  // 2 controller domains of 4 APs each
    cfg.domains_per_corridor = 2;
    cfg.drive_span_m = 30.0;   // long enough to cross the controller cut
    cfg.collect_metrics = true;
    const scenario::ParallelCityResult ref = scenario::run_parallel_city(cfg);
    ASSERT_NE(ref.metrics, nullptr);
    ASSERT_EQ(ref.lookahead_violations, 0u) << "seed " << seed;
    ASSERT_EQ(ref.invariant_violations, 0u) << "seed " << seed;
    cfg.workers = 2;
    const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
    EXPECT_EQ(r.metrics->to_json(), ref.metrics->to_json()) << "seed " << seed;
    EXPECT_EQ(r.client_mbps, ref.client_mbps) << "seed " << seed;
    EXPECT_EQ(r.lookahead_violations, 0u);
    EXPECT_EQ(r.invariant_violations, 0u);
  }
}

TEST(ParallelCityTest, RecordPerfExposesThreadAttribution) {
  scenario::ParallelCityConfig cfg = small_city(3);
  cfg.workers = 2;
  cfg.record_perf = true;
  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
  EXPECT_EQ(r.workers_used, 2);
  ASSERT_NE(r.metrics, nullptr);
  const auto* threads = r.metrics->find_gauge("sim.profile.threads_used");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->value(), 2.0);
  ASSERT_NE(r.metrics->find_gauge("sim.events_per_sec"), nullptr);
}

TEST(ParallelCityTest, ProfileMergesPerDomainProfilers) {
  scenario::ParallelCityConfig cfg = small_city(4);
  cfg.workers = 3;
  cfg.profile = true;
  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
  ASSERT_NE(r.metrics, nullptr);
  const auto* events = r.metrics->find_counter("sim.profile.events");
  ASSERT_NE(events, nullptr);
  // The merged profile covers every domain's events, not just one worker's.
  EXPECT_EQ(events->value(), r.events_executed);
}

TEST(ParallelCityTest, RejectsNonIsolatedCorridors) {
  scenario::ParallelCityConfig cfg = small_city(1);
  cfg.corridor_gap_m = 100.0;  // within carrier-sense reach: not isolable
  EXPECT_THROW(scenario::run_parallel_city(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace wgtt
