// Engine microbenchmarks for the hot-path optimizations and the TrialPool
// fan-out (not a paper figure — a regression guard for the simulator
// itself).
//
// Sections:
//   1. streaming median maintenance on a synthetic CSI stream (one sample
//      every 100 us) at 4, 17 and 550 live samples: the measured p99 and
//      maximum at the paper's 10 ms window, and the scale at 1 s;
//   2. scheduler churn: a schedule/cancel/fire mix mirroring Timer usage
//      (RTO and switch-ack restarts) on the inline-callback d-ary heap;
//   3. CSI measure(): LinkChannel::measure ns/op, with a global allocation
//      counter asserting the fixed-size path performs ZERO steady-state
//      heap allocations (the bench fails otherwise);
//   4. PHY math: esnr_metric_db, effective_snr_db for each modulation and
//      snr_for_ber, ns per call, on CSI from LinkChannel::measure along a
//      drive past one AP;
//   5. PacketPool + CyclicQueue put/take churn;
//   6. end-to-end engine throughput: one run_drive with record_perf, the
//      `sim.events_per_sec` gauge (committed to BENCH_engine.json so the
//      benchmark trajectory has a baseline);
//   7. TrialPool scaling: the same batch of drive trials at --jobs 1 and
//      at --jobs N, reporting trials/sec and the speedup. On a multicore
//      host the speedup at --jobs 4 should be >= 2x; on a single-core CI
//      box it is honestly ~1x (the pool cannot conjure cores);
//   8. event-kind profiler: a profiled drive's per-category wall-time
//      breakdown (from the sim.profile.* snapshot), asserting the
//      categories are populated, the breakdown covers 90-102% of the
//      run's wall time (more means a wrong tick scale), and the
//      profiler's per-event cost (EventProfiler::record_since, timed in a
//      loop) stays < 5% of the mean profiled event. Gated behind
//      --profile so un-flagged runs stay comparable to older baselines;
//      CI exercises it via the bench-smoke-profile target.
//
// All numbers also land as google-benchmark counters (perf/engine).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ap/cyclic_queue.h"
#include "bench/harness.h"
#include "bench/report.h"
#include "channel/link_channel.h"
#include "core/streaming_median.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "phy/esnr.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "util/rng.h"

// --- global allocation counter (section 3's zero-allocation assertion) -------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace wgtt;
using namespace wgtt::benchx;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Deterministic ESNR-like stream (no libc rand: identical on every host).
double synth_esnr(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return 10.0 + static_cast<double>((state >> 33) % 2500) / 100.0;  // 10-35 dB
}

/// Timer-shaped churn: a bank of restartable timeouts; most get restarted
/// before firing (the 30 ms switch-ack and TCP RTO pattern), the rest fire
/// when the clock is pumped. Returns the number of events fired.
std::uint64_t churn_workload(sim::Scheduler& s, int ops) {
  constexpr int kTimers = 256;
  std::vector<sim::EventId> pending(kTimers, sim::EventId{});
  std::vector<char> armed(kTimers, 0);
  std::uint64_t fired = 0;
  std::uint64_t state = 9;
  for (int i = 0; i < ops; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int k = static_cast<int>((state >> 33) % kTimers);
    if (armed[static_cast<std::size_t>(k)]) s.cancel(pending[static_cast<std::size_t>(k)]);
    armed[static_cast<std::size_t>(k)] = 1;
    const Time delay = Time::us(static_cast<std::int64_t>(30 + ((state >> 40) % 1000)));
    pending[static_cast<std::size_t>(k)] =
        s.schedule_at(s.now() + delay, [&armed, &fired, k] {
          armed[static_cast<std::size_t>(k)] = 0;
          ++fired;
        });
    if ((i & 7) == 0) s.run_until(s.now() + Time::us(120));
  }
  s.run_until(s.now() + Time::ms(10));  // drain most of what's left
  return fired;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(&argc, argv);
  const int samples = opts.smoke ? 20'000 : 200'000;
  std::map<std::string, double> counters;

  std::printf("=== Engine performance: hot paths and trial fan-out ===\n\n");

  // --- 1. median maintenance --------------------------------------------------
  // At the live-sample counts measured on the drives (DESIGN.md §8): p99 and
  // maximum at the paper's W = 10 ms, and the W = 1 s scale (maxima of 549
  // and 578 in two drives).
  std::printf("median maintenance (one add + one lower_median per sample, "
              "%d samples)\n", samples);
  for (const int live : {4, 17, 550}) {
    const Time step = Time::us(100);
    const Time window = Time::us(100 * live);  // exactly `live` in window

    std::uint64_t state = 7;
    core::StreamingMedian sm(window);
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    Time now = Time::zero();
    for (int i = 0; i < samples; ++i, now += step) {
      sm.add(now, synth_esnr(state));
      sink += sm.lower_median(now).value_or(0.0);
    }
    const double msps = samples / seconds_since(t0) / 1e6;
    std::printf("  sorted window, %3d live  %8.2f Msamples/s  (sink %.1f)\n",
                live, msps, sink);
    counters["median_live" + std::to_string(live) + "_msps"] = msps;
  }
  std::printf("\n");

  // --- 2. scheduler churn ------------------------------------------------------
  {
    const int ops = samples;
    sim::Scheduler sched;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t fired = churn_workload(sched, ops);
    const double mops = ops / seconds_since(t0) / 1e6;
    std::printf("scheduler churn (%d schedule/cancel ops, %llu fired)\n", ops,
                static_cast<unsigned long long>(fired));
    std::printf("  inline-callback 4-ary heap  %8.2f Mops/s\n\n", mops);
    counters["sched_churn_mops"] = mops;
  }

  // --- 3. CSI measure(): ns/op and the zero-allocation assertion --------------
  {
    Rng rng(21);
    channel::LinkChannel::Config cfg;
    channel::LinkChannel link({0.0, 15.0}, {40.0, 0.0}, cfg, rng);
    const int iters = samples;
    double sink = 0.0;
    // Warm up (first calls may touch lazily-allocated libm/TLS state).
    for (int i = 0; i < 100; ++i) {
      sink += link.measure({i * 0.11, 0.0}, Time::us(i)).mean_snr_db;
    }
    const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const channel::CsiMeasurement m =
          link.measure({-30.0 + i * 0.013, 0.4}, Time::us(i * 25));
      sink += m.mean_snr_db + m.subcarrier_snr_db[static_cast<std::size_t>(i) % 56];
    }
    const double measure_s = seconds_since(t0);
    const std::uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    const double ns_op = measure_s / iters * 1e9;
    std::printf("CSI measure() (%d calls, sink %.1f)\n", iters, sink);
    std::printf("  %8.1f ns/op, %llu heap allocations\n", ns_op,
                static_cast<unsigned long long>(allocs));
    if (allocs != 0) {
      std::printf("  FAIL: fixed-size CSI path must not allocate\n");
      return 1;
    }
    std::printf("  zero steady-state allocations: yes\n\n");
    counters["csi_measure_ns"] = ns_op;
    counters["csi_measure_allocs"] = static_cast<double>(allocs);
  }

  // --- 4. PHY math: ESNR and its BER inversion on drive CSI -------------------
  {
    // A 15 mph drive from 60 m before the AP to 60 m past it, one CSI
    // sample per 9 ms (6 cm): every SNR from cell edge to boresight.
    Rng rng(21);
    channel::LinkChannel::Config cfg;
    channel::LinkChannel link({0.0, 15.0}, {40.0, 0.0}, cfg, rng);
    constexpr int kCsi = 2000;
    std::vector<channel::CsiMeasurement> csi;
    csi.reserve(kCsi);
    for (int i = 0; i < kCsi; ++i) {
      csi.push_back(link.measure({-60.0 + 0.06 * i, 0.4}, Time::ms(9 * i)));
    }
    // snr_for_ber's inputs are the mean BERs effective_snr_db inverts.
    std::vector<std::pair<phy::Modulation, double>> bers;
    for (const auto& m : csi) {
      for (int k = 0; k < 4; ++k) {
        const auto mod = static_cast<phy::Modulation>(k);
        double mean_ber = 0.0;
        for (const double snr_db : m.subcarrier_snr_db) {
          mean_ber += phy::bit_error_rate(mod, from_db(snr_db));
        }
        mean_ber /= static_cast<double>(m.subcarrier_snr_db.size());
        if (mean_ber >= 1e-12) bers.emplace_back(mod, mean_ber);
      }
    }

    double sink = 0.0;
    const auto ns_per_call = [&](auto&& call) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < samples; ++i) sink += call(i);
      return seconds_since(t0) / samples * 1e9;
    };
    const auto snr_of = [&](int i) {
      return std::span<const double>(csi[static_cast<std::size_t>(i % kCsi)]
                                         .subcarrier_snr_db);
    };
    std::printf("PHY math (%d CSI samples along a 15 mph drive, %d calls each)\n",
                kCsi, samples);
    const double metric_ns =
        ns_per_call([&](int i) { return phy::esnr_metric_db(snr_of(i)); });
    std::printf("  esnr_metric_db             %8.1f ns/call\n", metric_ns);
    counters["phy_esnr_metric_ns"] = metric_ns;
    constexpr const char* kKeys[] = {"bpsk", "qpsk", "qam16", "qam64"};
    for (int k = 0; k < 4; ++k) {
      const auto mod = static_cast<phy::Modulation>(k);
      const double ns = ns_per_call(
          [&](int i) { return phy::effective_snr_db(snr_of(i), mod); });
      std::printf("  effective_snr_db %-9s %8.1f ns/call\n",
                  std::string(phy::to_string(mod)).c_str(), ns);
      counters[std::string("phy_effective_snr_") + kKeys[k] + "_ns"] = ns;
    }
    if (bers.empty()) {
      std::printf("  FAIL: the drive produced no BER for snr_for_ber\n");
      return 1;
    }
    const double inverse_ns = ns_per_call([&](int i) {
      const auto& [mod, ber] = bers[static_cast<std::size_t>(i) % bers.size()];
      return phy::snr_for_ber(mod, ber);
    });
    std::printf("  snr_for_ber                %8.1f ns/call (%zu BERs, sink %.1f)\n\n",
                inverse_ns, bers.size(), sink);
    counters["phy_snr_for_ber_ns"] = inverse_ns;
  }

  // --- 5. packet pool + cyclic queue churn -------------------------------------
  {
    net::PacketPool pool;
    ap::CyclicQueue q(&pool);
    std::uint64_t state = 3;
    const int ops = samples;
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t taken = 0;
    for (int i = 0; i < ops; ++i) {
      net::Packet p = net::make_packet();
      p.ip_id = static_cast<std::uint16_t>(state >> 40);
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      q.put(static_cast<std::uint16_t>(i & 0xfff), std::move(p));
      if ((state & 3) == 0) {
        if (auto got = q.take(static_cast<std::uint16_t>(i & 0xfff))) ++taken;
      }
    }
    q.clear();
    const double churn_s = seconds_since(t0);
    const double churn_mops = ops / churn_s / 1e6;
    std::printf("cyclic queue churn: %8.2f Mops/s (%llu takes, peak pool %zu pkts)\n\n",
                churn_mops, static_cast<unsigned long long>(taken),
                pool.peak_in_use());
    counters["queue_churn_mops"] = churn_mops;
    counters["pool_peak_packets"] = static_cast<double>(pool.peak_in_use());
  }

  // --- 6. end-to-end engine throughput -----------------------------------------
  {
    DriveConfig cfg;
    cfg.mph = 25.0;
    cfg.udp_rate_mbps = 20.0;
    cfg.seed = 11;
    cfg.record_perf = true;
    const DriveResult r = run_drive(cfg);
    const obs::Gauge* g = r.metrics ? r.metrics->find_gauge("sim.events_per_sec")
                                    : nullptr;
    const double eps = g != nullptr ? g->value() : 0.0;
    std::printf("end-to-end drive (25 mph, 20 Mb/s UDP): %.2f M events/s\n\n",
                eps / 1e6);
    counters["sim_events_per_sec"] = eps;
  }

  // --- 7. trial-pool scaling ---------------------------------------------------
  {
    const int trials = opts.smoke ? 2 : 8;
    const int jobs_n = opts.jobs > 1 ? opts.jobs : 4;
    auto make_batch = [&](TrialPool& pool) {
      DriveConfig cfg;
      cfg.mph = 25.0;
      cfg.udp_rate_mbps = 20.0;
      cfg.seed = 5;
      for (int i = 0; i < trials; ++i) {
        cfg.seed = cfg.seed * 7919 + 13;
        pool.submit(cfg);
      }
    };

    TrialPool seq(TrialPool::Options{.jobs = 1});
    make_batch(seq);
    const auto seq_results = seq.run();

    TrialPool par(TrialPool::Options{.jobs = jobs_n});
    make_batch(par);
    const auto par_results = par.run();

    // The determinism contract, checked here for free: identical results.
    double seq_sum = 0.0, par_sum = 0.0;
    for (const auto& r : seq_results) seq_sum += r.mean_mbps();
    for (const auto& r : par_results) par_sum += r.mean_mbps();
    if (seq_sum != par_sum) {
      std::printf("trial-pool MISMATCH: jobs=1 %.9f vs jobs=%d %.9f\n", seq_sum,
                  jobs_n, par_sum);
      return 1;
    }

    const double speedup = par.trials_per_sec() / seq.trials_per_sec();
    std::printf("trial-pool scaling (%d drive trials)\n", trials);
    std::printf("  --jobs 1   %8.3f trials/s\n", seq.trials_per_sec());
    std::printf("  --jobs %-3d %8.3f trials/s  (%.2fx)\n", jobs_n,
                par.trials_per_sec(), speedup);
    std::printf("  results bit-identical across job counts: yes\n");
    counters["trials_per_sec_jobs1"] = seq.trials_per_sec();
    counters["trials_per_sec_jobsN"] = par.trials_per_sec();
    counters["trial_pool_speedup"] = speedup;
    counters["jobs_n"] = jobs_n;
  }

  // --- 8. event-kind profiler: breakdown coverage + overhead bound -------------
  if (opts.profile) {
    DriveConfig cfg;
    cfg.mph = 25.0;
    cfg.udp_rate_mbps = 20.0;
    cfg.seed = 11;
    cfg.record_perf = true;
    const int reps = opts.smoke ? 2 : 3;

    const auto eps_of = [](const DriveResult& r) {
      const obs::Gauge* g =
          r.metrics ? r.metrics->find_gauge("sim.events_per_sec") : nullptr;
      return g != nullptr ? g->value() : 0.0;
    };

    // Best-of-N events/sec with the profiler detached, then attached. Best-of
    // (not mean) so one noisy rep on a loaded CI box cannot fake an overhead
    // regression; the bound below is on the best-vs-best ratio.
    double eps_off = 0.0;
    for (int i = 0; i < reps; ++i) {
      cfg.profile = false;
      eps_off = std::max(eps_off, eps_of(run_drive(cfg)));
    }
    double eps_on = 0.0;
    DriveResult prof;
    cfg.profile = true;
    for (int i = 0; i < reps; ++i) {
      DriveResult r = run_drive(cfg);
      const double eps = eps_of(r);
      if (eps > eps_on || !prof.metrics) {
        eps_on = eps;
        prof = std::move(r);
      }
    }

    std::printf("event-kind profiler (25 mph drive, best of %d runs)\n", reps);
    std::printf("  %-10s %12s %12s %7s %10s\n", "category", "events",
                "total ms", "share", "mean us");
    std::uint64_t total_events = 0;
    std::uint64_t total_ns = 0;
    int populated = 0;
    const obs::MetricsRegistry& m = *prof.metrics;
    for (int i = 0; i < sim::kNumEventCategories; ++i) {
      const auto cat = static_cast<sim::EventCategory>(i);
      const std::string base = "sim.profile." + std::string(sim::to_string(cat));
      const obs::Counter* ns = m.find_counter(base + "_ns");
      const obs::Histogram* us = m.find_histogram(base + "_us");
      if (ns != nullptr) total_ns += ns->value();
      if (us != nullptr) total_events += us->count();
      if (us != nullptr && us->count() > 0) ++populated;
    }
    for (int i = 0; i < sim::kNumEventCategories; ++i) {
      const auto cat = static_cast<sim::EventCategory>(i);
      const std::string base = "sim.profile." + std::string(sim::to_string(cat));
      const obs::Counter* ns = m.find_counter(base + "_ns");
      const obs::Histogram* us = m.find_histogram(base + "_us");
      const std::uint64_t cat_ns = ns != nullptr ? ns->value() : 0;
      const std::uint64_t cat_events = us != nullptr ? us->count() : 0;
      std::printf("  %-10s %12llu %12.2f %6.1f%% %10.2f\n",
                  std::string(sim::to_string(cat)).c_str(),
                  static_cast<unsigned long long>(cat_events),
                  cat_ns / 1e6,
                  total_ns > 0 ? 100.0 * static_cast<double>(cat_ns) /
                                     static_cast<double>(total_ns)
                               : 0.0,
                  cat_events > 0 ? static_cast<double>(cat_ns) /
                                       static_cast<double>(cat_events) / 1e3
                                 : 0.0);
    }

    const obs::Gauge* cov = m.find_gauge("sim.profile.wall_coverage");
    const double coverage = cov != nullptr ? cov->value() : 0.0;

    // The enforced overhead bound is measured directly: one loop iteration
    // below does exactly what the profiled step() adds per event
    // (EventProfiler::record_since: one ProfileClock read + record), and
    // the cost is compared against the profiled drive's mean event
    // duration. The end-to-end events/sec off-vs-on delta is printed for
    // context but NOT enforced — on a busy single-core CI box its
    // run-to-run variance (easily 10-20%) swamps the few-percent signal and
    // would make the gate flaky.
    sim::EventProfiler probe;
    const int cal_iters = opts.smoke ? 500'000 : 2'000'000;
    const auto cal_t0 = std::chrono::steady_clock::now();
    std::uint64_t cal_mark = sim::ProfileClock::now();
    for (int i = 0; i < cal_iters; ++i) {
      probe.record_since(sim::EventCategory::kOther, cal_mark);
    }
    const double cost_ns = seconds_since(cal_t0) / cal_iters * 1e9;
    const double mean_event_ns =
        total_events > 0
            ? static_cast<double>(total_ns) / static_cast<double>(total_events)
            : 0.0;
    const double overhead = mean_event_ns > 0.0 ? cost_ns / mean_event_ns : 1.0;

    std::printf("  breakdown: %llu events, %.2f ms attributed, %.1f%% of wall time\n",
                static_cast<unsigned long long>(total_events), total_ns / 1e6,
                coverage * 100.0);
    std::printf("  instrumentation: %.0f ns/event vs %.0f ns mean event (%.1f%% overhead)\n",
                cost_ns, mean_event_ns, overhead * 100.0);
    std::printf("  throughput (context only): %.2f M events/s off, %.2f M events/s on (%+.1f%%)\n",
                eps_off / 1e6, eps_on / 1e6,
                eps_off > 0.0 ? (eps_on / eps_off - 1.0) * 100.0 : 0.0);

    if (total_events == 0 || populated < 3) {
      std::printf("  FAIL: sim.profile.* categories are empty (%d populated)\n",
                  populated);
      return 1;
    }
    if (coverage < 0.90) {
      std::printf("  FAIL: breakdown covers %.1f%% of wall time (< 90%%)\n",
                  coverage * 100.0);
      return 1;
    }
    // More than the wall time can only come from a wrong tick scale.
    if (coverage > 1.02) {
      std::printf("  FAIL: breakdown covers %.1f%% of wall time (> 102%%)\n",
                  coverage * 100.0);
      return 1;
    }
    if (overhead > 0.05) {
      std::printf("  FAIL: profiler overhead %.1f%% exceeds the 5%% bound\n",
                  overhead * 100.0);
      return 1;
    }
    std::printf("  coverage in [90%%, 102%%] and overhead < 5%%: yes\n\n");
    counters["profile_events"] = static_cast<double>(total_events);
    counters["profile_coverage"] = coverage;
    counters["profile_overhead_pct"] = overhead * 100.0;
    counters["profile_eps_off"] = eps_off;
    counters["profile_eps_on"] = eps_on;
    for (int i = 0; i < sim::kNumEventCategories; ++i) {
      const auto cat = static_cast<sim::EventCategory>(i);
      const std::string name = std::string(sim::to_string(cat));
      const obs::Counter* ns =
          m.find_counter("sim.profile." + name + "_ns");
      counters["profile_" + name + "_ms"] =
          (ns != nullptr ? ns->value() : 0) / 1e6;
    }
  }

  report("perf/engine", counters);
  return finish(argc, argv);
}
