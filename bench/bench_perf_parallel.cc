// Parallel-engine performance (DESIGN.md §11): strong scaling of one
// city-scale run over worker counts. The SAME 256-AP parallel city (16
// RF-isolated corridors, domain graph fixed by the scenario) is executed
// with 1, 2, 4 and 8 workers. Reported per point: events/sec and speedup vs
// one worker. The sweep hard-fails if any worker count changes the merged
// wgtt.metrics.v1 snapshot by a single byte, if a lookahead violation is
// counted, or if a switching-protocol invariant breaks — the knob must buy
// wall-clock time and nothing else. (Speedup is only meaningful on a
// multi-core host; on a single-core CI box the lockstep barriers make extra
// workers pure overhead, so the gate is correctness, not a speedup floor.)
//
// The shared reporter stamps an `ndebug` counter into the JSON, so
// BENCH_parallel.json records whether the numbers came from an optimized
// build (docs/BENCHMARKS.md notes the build type per file).
#include <cstdio>
#include <map>
#include <string>

#include "bench/harness.h"
#include "bench/report.h"
#include "scenario/parallel_city.h"

using namespace wgtt;

int main(int argc, char** argv) {
  const benchx::BenchOptions opts = benchx::parse_bench_options(&argc, argv);
  std::map<std::string, double> counters;

  std::printf("=== Parallel engine: strong scaling ===\n\n");

  scenario::ParallelCityConfig cfg;
  if (opts.smoke) {
    cfg.corridors = 4;
    cfg.aps_per_corridor = 4;
    cfg.clients_per_corridor = 1;
    cfg.drive_span_m = 10.0;
  } else {
    // The 256-AP city: 16 corridors x 16 APs, one driving client each.
    cfg.corridors = 16;
    cfg.aps_per_corridor = 16;
    cfg.clients_per_corridor = 1;
    cfg.drive_span_m = 20.0;
  }
  cfg.udp_rate_mbps = 4.0;
  cfg.seed = 5;
  cfg.collect_metrics = true;  // merged snapshot = the identity oracle

  std::printf("strong scaling (%d corridors x %d APs = %d APs, %d clients, %.0f m drive)\n",
              cfg.corridors, cfg.aps_per_corridor,
              cfg.corridors * cfg.aps_per_corridor, cfg.corridors * cfg.clients_per_corridor,
              cfg.drive_span_m);

  std::string ref_json;
  double eps1 = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    cfg.workers = workers;
    const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
    if (r.lookahead_violations != 0) {
      std::printf("  FAIL: %llu lookahead violations at %d workers\n",
                  static_cast<unsigned long long>(r.lookahead_violations),
                  workers);
      return 1;
    }
    if (r.invariant_violations != 0) {
      std::printf("  FAIL: %zu invariant violations at %d workers\n",
                  r.invariant_violations, workers);
      return 1;
    }
    const std::string json = r.metrics->to_json();
    if (workers == 1) {
      ref_json = json;
      eps1 = r.events_per_sec;
    } else if (json != ref_json) {
      std::printf("  FAIL: metrics snapshot at %d workers differs from 1 worker\n",
                  workers);
      return 1;
    }
    const double speedup = eps1 > 0.0 ? r.events_per_sec / eps1 : 0.0;
    std::printf("  %d workers (%d used): %8.0f k events/s  %5.2fx vs 1, "
                "%llu rounds, %llu msgs, %.1f Mbps mean\n",
                workers, r.workers_used, r.events_per_sec / 1e3, speedup,
                static_cast<unsigned long long>(r.rounds),
                static_cast<unsigned long long>(r.messages), r.mean_mbps);
    counters["parallel_eps_w" + std::to_string(workers)] = r.events_per_sec;
    counters["parallel_speedup_w" + std::to_string(workers)] = speedup;
    if (workers == 1) {
      counters["parallel_rounds"] = static_cast<double>(r.rounds);
      counters["parallel_messages"] = static_cast<double>(r.messages);
      counters["parallel_events"] = static_cast<double>(r.events_executed);
      counters["parallel_mean_mbps"] = r.mean_mbps;
    }
  }
  std::printf("  byte-identical snapshots across all worker counts: yes\n\n");

  benchx::report("perf/parallel", counters);
  return benchx::finish(argc, argv);
}
