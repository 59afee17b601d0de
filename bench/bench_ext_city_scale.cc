// Extension: city-scale deployment (DESIGN.md §9, spatial interest
// management).
//
// The paper's prototype covers ~60 m of road; a transit network covers a
// city. This bench scales the array to 1024 APs (~7.7 km of road) with 256
// concurrent clients spread along it at constant density, and checks the
// property that makes the design city-viable: per-client goodput stays
// flat as the deployment grows, because every hot-path cost (medium
// fan-out, CSI sampling, ESNR argmax, downlink fan-out) is bounded to the
// O(1) picocell neighborhood around each client — by the spatial index,
// or, for the ESNR tracker, because only APs that heard a client hold a
// link to it — so total work scales with clients, not with clients x APs.
//
// Knobs that differ from the paper-figure benches (all documented at their
// definitions): Pattern::kDistributed keeps density constant over the
// window, lazy_links skips materialising the 1024 x 256 channel matrix,
// and bounded_fallback keeps a cold client's first fan-out inside its
// neighborhood instead of copying to every AP in the city.
//
// --smoke runs two small 64-AP points through a 2-worker TrialPool
// (sanitizer-compatible; registered as the bench-smoke-city ctest target).
// No drive here scripts a fault, so a downlink packet dropped for an empty
// fan-out set is a bug: the bench exits 1 if any drive drops one.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"

using namespace wgtt;
using namespace wgtt::benchx;

namespace {

DriveConfig city_config(int num_aps, int num_clients) {
  DriveConfig cfg;
  cfg.mph = 15.0;
  // Modest per-client rate: the interesting axis is deployment size, not
  // per-cell saturation, and the aggregate offered load still reaches
  // ~1 Gbit/s at the 256-client point.
  cfg.udp_rate_mbps = 4.0;
  cfg.seed = 211;
  cfg.num_clients = num_clients;
  cfg.pattern = Pattern::kDistributed;
  cfg.drive_span_m = 90.0;
  cfg.bounded_fallback = true;
  cfg.record_perf = true;  // sim.events_per_sec in the snapshot
  cfg.metrics_interval = Time::sec(1);
  scenario::GeometryConfig geo;
  geo.num_aps = num_aps;
  geo.lazy_links = true;
  cfg.geometry = geo;
  return cfg;
}

double events_per_sec(const DriveResult& r) {
  return r.metrics ? r.metrics->gauge("sim.events_per_sec").value() : 0.0;
}

void print_row(int aps, int clients, const DriveResult& r) {
  std::printf("%8d %10d %14.2f %12llu %14.0f %12zu\n", aps, clients,
              r.mean_mbps(), static_cast<unsigned long long>(r.switches),
              events_per_sec(r), r.invariant_violations);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(&argc, argv);
  std::printf("=== Extension: city-scale deployment (UDP 4 Mbit/s, 15 mph, "
              "distributed clients) ===\n\n");
  std::printf("%8s %10s %14s %12s %14s %12s\n", "APs", "clients",
              "Mbit/s/client", "switches", "events/s", "violations");

  std::map<std::string, double> counters;
  std::uint64_t empty_drops = 0;
  const auto count_drops = [&](const std::string& tag, const DriveResult& r) {
    counters["fanout_empty_drops_" + tag] =
        static_cast<double>(r.fanout_empty_drops);
    empty_drops += r.fanout_empty_drops;
  };
  if (opts.smoke) {
    TrialPool pool({.jobs = opts.jobs});
    pool.submit(city_config(64, 8));
    pool.submit(city_config(64, 16));
    const std::vector<DriveResult> results = pool.run();
    const int clients[] = {8, 16};
    for (std::size_t i = 0; i < results.size(); ++i) {
      print_row(64, clients[i], results[i]);
      const std::string tag = "64x" + std::to_string(clients[i]);
      counters["mbps_" + tag] = results[i].mean_mbps();
      counters["violations_" + tag] =
          static_cast<double>(results[i].invariant_violations);
      count_drops(tag, results[i]);
    }
  } else {
    const std::pair<int, int> points[] = {{64, 16}, {256, 64}, {1024, 256}};
    double mbps_first = 0.0;
    double mbps_last = 0.0;
    for (const auto& [aps, clients] : points) {
      const DriveResult r = run_drive(city_config(aps, clients));
      print_row(aps, clients, r);
      const std::string tag =
          std::to_string(aps) + "x" + std::to_string(clients);
      counters["mbps_" + tag] = r.mean_mbps();
      counters["events_per_sec_" + tag] = events_per_sec(r);
      counters["switch_per_s_" + tag] =
          static_cast<double>(r.switches) / r.duration_s;
      counters["violations_" + tag] =
          static_cast<double>(r.invariant_violations);
      count_drops(tag, r);
      if (aps == points[0].first) mbps_first = r.mean_mbps();
      mbps_last = r.mean_mbps();
    }
    counters["goodput_flatness"] =
        mbps_first > 0.0 ? mbps_last / mbps_first : 0.0;
    std::printf(
        "\nexpectation: Mbit/s per client is flat across the sweep (the\n"
        "acceptance bar is the 1024-AP point within 10%% of the 64-AP\n"
        "point): every per-packet and per-CSI cost is bounded by the\n"
        "spatial neighborhood, so adding road adds work only where the\n"
        "added clients are.\n");
  }

  report("ext/city_scale", counters);
  const int rc = finish(argc, argv);
  if (empty_drops > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu downlink packets dropped for an empty fan-out "
                 "set in a fault-free drive\n",
                 static_cast<unsigned long long>(empty_drops));
    return 1;
  }
  return rc;
}
