// wgtt_sim: command-line front end to the simulator.
//
// Runs one configurable drive-by experiment and prints a summary; with
// --csv, writes the full event trace for external analysis (the same role
// the paper's tcpdump logs played).
//
// Usage:
//   wgtt_sim [--system wgtt|baseline] [--workload udp|tcp|uplink]
//            [--mph 15] [--rate 30] [--clients 1] [--aps 8] [--spacing 7.5]
//            [--seed 1] [--window-ms 10] [--hysteresis-ms 40]
//            [--channel-reuse 1] [--csv out.csv]
//            [--metrics out.json] [--metrics-interval-ms 100]
//            [--backhaul-rate MBPS] [--backhaul-batching]
//
// --backhaul-rate enables the per-link bandwidth/queue model (DESIGN.md
// §10) at the given Mb/s per (controller, AP) link; --backhaul-batching
// coalesces downlink fan-out into batched deliveries. Both off by default
// (the infinite-pipe engine).
//
// --metrics writes a JSON snapshot of the whole metrics registry after the
// run (schema wgtt.metrics.v1, see DESIGN.md §Observability): controller
// switch-phase histograms, cyclic-queue and hardware-queue depths,
// block-ACK forwarding, de-dup and TCP counters. --metrics-interval-ms sets
// the system-gauge sampling period (default 100 ms).
//
// Examples:
//   wgtt_sim --mph 25 --rate 40
//   wgtt_sim --system baseline --workload tcp --mph 15
//   wgtt_sim --channel-reuse 3 --csv trace.csv
//   wgtt_sim --mph 25 --metrics m.json
//   wgtt_sim --parallel-workers 4 --corridors 8 --rate 4
//
// --parallel-workers N runs the multi-corridor city scenario on the
// conservative parallel engine (DESIGN.md §11) with N worker threads: the
// city splits into RF-isolated road-segment domains (one per corridor, plus
// a server-side traffic hub), synchronized in lockstep windows of one wire
// latency. N is a wall-clock knob only — results are byte-identical for
// every N, which `ctest -R ParallelCity` proves 20 seeds deep. --corridors,
// --aps and --clients size the city (APs and clients are per corridor;
// --corridors is what changes the domain partition and hence results).
//
// --domains N splits the AP array across N controller domains (DESIGN.md
// §12): contiguous AP stretches, inter-controller handover at the
// boundaries, and crash failover. 1 (the default) is the single-controller
// engine, byte-identical to the seed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench/harness.h"
#include "obs/metrics.h"
#include "scenario/parallel_city.h"
#include "scenario/wgtt_system.h"

using namespace wgtt;
using namespace wgtt::benchx;

namespace {

struct Options {
  DriveConfig drive;
  int num_aps = 8;
  double spacing = 7.5;
  int parallel_workers = 0;  // 0 = sequential run_drive path
  int corridors = 4;
  bool ok = true;
  bool help = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: wgtt_sim [--system wgtt|baseline] [--workload "
               "udp|tcp|uplink]\n"
               "                [--mph N] [--rate MBPS] [--clients N] "
               "[--aps N] [--spacing M]\n"
               "                [--seed N] [--window-ms N] "
               "[--hysteresis-ms N]\n"
               "                [--channel-reuse N] [--csv FILE]\n"
               "                [--metrics FILE] [--metrics-interval-ms N]\n"
               "                [--backhaul-rate MBPS] [--backhaul-batching]\n"
               "                [--domains N]\n"
               "                [--parallel-workers N] [--corridors N]\n");
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        o.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    // A value outside its flag's range fails the run up front, with usage.
    auto reject = [&](const char* name, const char* need, const char* v) {
      std::fprintf(stderr, "%s must be %s, got '%s'\n", name, need, v);
      usage();
      o.ok = false;
    };
    if (arg == "--system") {
      const char* v = need_value("--system");
      if (v == nullptr) break;
      if (std::strcmp(v, "wgtt") == 0) {
        o.drive.system = System::kWgtt;
      } else if (std::strcmp(v, "baseline") == 0) {
        o.drive.system = System::kBaseline;
      } else {
        std::fprintf(stderr, "unknown system '%s'\n", v);
        o.ok = false;
      }
    } else if (arg == "--workload") {
      const char* v = need_value("--workload");
      if (v == nullptr) break;
      if (std::strcmp(v, "udp") == 0) {
        o.drive.workload = Workload::kUdpDown;
      } else if (std::strcmp(v, "tcp") == 0) {
        o.drive.workload = Workload::kTcpDown;
      } else if (std::strcmp(v, "uplink") == 0) {
        o.drive.workload = Workload::kUdpUp;
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        o.ok = false;
      }
    } else if (arg == "--mph") {
      const char* v = need_value("--mph");
      if (v) o.drive.mph = std::atof(v);
    } else if (arg == "--rate") {
      const char* v = need_value("--rate");
      if (v) {
        o.drive.udp_rate_mbps = std::atof(v);
        // A rate of 0 or less would schedule every packet at t = 0.
        if (!(o.drive.udp_rate_mbps > 0.0) ||
            !std::isfinite(o.drive.udp_rate_mbps)) {
          reject("--rate", "positive", v);
        }
      }
    } else if (arg == "--clients") {
      const char* v = need_value("--clients");
      if (v) o.drive.num_clients = std::atoi(v);
    } else if (arg == "--aps") {
      const char* v = need_value("--aps");
      if (v) {
        o.num_aps = std::atoi(v);
        if (o.num_aps < 1) reject("--aps", ">= 1", v);
      }
    } else if (arg == "--spacing") {
      const char* v = need_value("--spacing");
      if (v) o.spacing = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (v) o.drive.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--window-ms") {
      const char* v = need_value("--window-ms");
      if (v) o.drive.selection_window = Time::millis(std::atof(v));
    } else if (arg == "--hysteresis-ms") {
      const char* v = need_value("--hysteresis-ms");
      if (v) o.drive.hysteresis = Time::millis(std::atof(v));
    } else if (arg == "--channel-reuse") {
      const char* v = need_value("--channel-reuse");
      if (v) o.drive.channel_reuse = std::atoi(v);
    } else if (arg == "--csv") {
      const char* v = need_value("--csv");
      if (v) o.drive.trace_csv_path = v;
    } else if (arg == "--metrics") {
      const char* v = need_value("--metrics");
      if (v) o.drive.metrics_path = v;
    } else if (arg == "--backhaul-rate") {
      const char* v = need_value("--backhaul-rate");
      if (v) {
        const double rate = std::atof(v);
        if (rate <= 0.0) {
          reject("--backhaul-rate", "positive", v);
        } else {
          o.drive.backhaul_link_rate_mbps = rate;
        }
      }
    } else if (arg == "--domains") {
      const char* v = need_value("--domains");
      if (v) {
        o.drive.num_domains = std::atoi(v);
        if (o.drive.num_domains < 1) reject("--domains", ">= 1", v);
      }
    } else if (arg == "--parallel-workers") {
      const char* v = need_value("--parallel-workers");
      if (v) {
        o.parallel_workers = std::atoi(v);
        if (o.parallel_workers < 1) reject("--parallel-workers", ">= 1", v);
      }
    } else if (arg == "--corridors") {
      const char* v = need_value("--corridors");
      if (v) {
        o.corridors = std::atoi(v);
        if (o.corridors < 1) reject("--corridors", ">= 1", v);
      }
    } else if (arg == "--backhaul-batching") {
      o.drive.backhaul_batching = true;
    } else if (arg == "--metrics-interval-ms") {
      const char* v = need_value("--metrics-interval-ms");
      if (v) {
        const double ms = std::atof(v);
        if (ms <= 0.0) {
          reject("--metrics-interval-ms", "positive", v);
        } else {
          o.drive.metrics_interval = Time::millis(ms);
        }
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      o.help = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      o.ok = false;
    }
  }
  if (o.num_aps != 8 || o.spacing != 7.5) {
    scenario::GeometryConfig geo;
    geo.num_aps = o.num_aps;
    geo.ap_spacing_m = o.spacing;
    o.drive.geometry = geo;
  }
  o.drive.accuracy_probe = Time::ms(10);
  return o;
}

/// Runs the multi-corridor city on the parallel engine (--parallel-workers).
int run_parallel(const Options& o) {
  scenario::ParallelCityConfig cfg;
  cfg.corridors = o.corridors;
  cfg.aps_per_corridor = o.num_aps;
  cfg.clients_per_corridor = o.drive.num_clients;
  cfg.mph = o.drive.mph;
  cfg.udp_rate_mbps = o.drive.udp_rate_mbps;
  cfg.seed = o.drive.seed;
  cfg.uplink = o.drive.workload == Workload::kUdpUp;
  cfg.workers = o.parallel_workers;
  cfg.collect_metrics = !o.drive.metrics_path.empty();

  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);

  std::printf("system      : wgtt (parallel engine, %d domains)\n", r.domains);
  std::printf("workload    : %s at %.1f Mbit/s per client\n",
              cfg.uplink ? "uplink udp" : "udp", cfg.udp_rate_mbps);
  std::printf("city        : %d corridors x %d APs, %d clients\n", cfg.corridors,
              cfg.aps_per_corridor, cfg.corridors * cfg.clients_per_corridor);
  std::printf("workers     : %d used (of %d requested)\n", r.workers_used,
              o.parallel_workers);
  std::printf("throughput  : %.2f Mbit/s mean per client\n", r.mean_mbps);
  std::printf("switches    : %llu\n", static_cast<unsigned long long>(r.switches));
  std::printf("engine      : %llu events, %llu rounds, %llu wire msgs, "
              "%.0f k events/s\n",
              static_cast<unsigned long long>(r.events_executed),
              static_cast<unsigned long long>(r.rounds),
              static_cast<unsigned long long>(r.messages),
              r.events_per_sec / 1e3);
  if (r.invariant_violations != 0 || r.lookahead_violations != 0) {
    std::printf("VIOLATIONS  : %zu invariant, %llu lookahead\n",
                r.invariant_violations,
                static_cast<unsigned long long>(r.lookahead_violations));
    return 1;
  }
  if (!o.drive.metrics_path.empty() && r.metrics) {
    std::ofstream out(o.drive.metrics_path);
    r.metrics->write_json(out);
    std::printf("metrics written to %s\n", o.drive.metrics_path.c_str());
  }
  return 0;
}

/// Checks the flag combinations, then runs the drive and prints its summary.
int run(const Options& o) {
  const bool traced = !o.drive.trace_csv_path.empty();
  const bool multichannel = o.drive.channel_reuse > 1;
  if (o.drive.system != System::kWgtt &&
      (!o.drive.metrics_path.empty() || traced || multichannel)) {
    std::fprintf(stderr,
                 "--metrics/--csv/--channel-reuse require the wgtt system\n");
    return 1;
  }
  // Fail unwritable output paths up front, not after a multi-second drive.
  // Probe in append mode so an existing file's contents survive the probe
  // (the real writers truncate, but only once the run has succeeded).
  for (const std::string& path : {o.drive.metrics_path, o.drive.trace_csv_path}) {
    if (path.empty()) continue;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "cannot write output file '%s'\n", path.c_str());
      usage();
      return 1;
    }
  }

  if (o.drive.num_domains > 1 &&
      (o.drive.system != System::kWgtt || o.parallel_workers > 0 ||
       multichannel)) {
    std::fprintf(stderr,
                 "--domains requires the wgtt system on the sequential "
                 "engine (no --channel-reuse/--parallel-workers)\n");
    return 1;
  }

  if (o.parallel_workers > 0) {
    if (o.drive.system != System::kWgtt ||
        o.drive.workload == Workload::kTcpDown || traced || multichannel) {
      std::fprintf(stderr,
                   "--parallel-workers supports the wgtt system with udp or "
                   "uplink workloads (no --csv/--channel-reuse)\n");
      return 1;
    }
    return run_parallel(o);
  }

  const DriveResult r = run_drive(o.drive);
  std::printf("system      : %s\n",
              o.drive.system == System::kWgtt ? "wgtt" : "baseline");
  std::printf("workload    : %s at %.1f Mbit/s\n",
              o.drive.workload == Workload::kTcpDown  ? "tcp"
              : o.drive.workload == Workload::kUdpUp ? "uplink udp"
                                                      : "udp",
              o.drive.udp_rate_mbps);
  std::printf("speed       : %.0f mph over %d APs\n", o.drive.mph, o.num_aps);
  std::printf("throughput  : %.2f Mbit/s in-array (mean over %d clients)\n",
              r.mean_mbps(), static_cast<int>(r.clients.size()));
  std::printf("accuracy    : %.1f %% of 10 ms probes on the optimal AP\n",
              r.mean_accuracy() * 100.0);
  std::printf("switches    : %llu (%.2f per second)\n",
              static_cast<unsigned long long>(r.switches),
              static_cast<double>(r.switches) / r.duration_s);
  if (!r.switch_protocol_ms.empty()) {
    double mean = 0.0;
    for (double ms : r.switch_protocol_ms) mean += ms;
    mean /= static_cast<double>(r.switch_protocol_ms.size());
    std::printf("switch time : %.1f ms mean\n", mean);
  }
  if (o.drive.num_domains > 1) {
    std::printf("domains     : %d (%llu handovers, %llu retries, %llu "
                "aborts, %llu penalty-blocked)\n",
                o.drive.num_domains,
                static_cast<unsigned long long>(r.handovers_completed),
                static_cast<unsigned long long>(r.handover_retries),
                static_cast<unsigned long long>(r.handover_aborts),
                static_cast<unsigned long long>(r.penalty_blocked));
  }
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    std::printf("  client %zu : %.2f Mbit/s, tcp %s\n", i, r.clients[i].mbps,
                r.clients[i].tcp_alive ? "alive" : "DEAD");
  }
  if (traced) {
    std::printf("trace written to %s\n", o.drive.trace_csv_path.c_str());
  }
  if (!o.drive.metrics_path.empty()) {
    std::printf("metrics written to %s\n", o.drive.metrics_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.help) return 0;
  if (!o.ok) return 1;
  // A configuration the simulator refuses while setting up (a --rate too
  // high to leave 1 ns between packets, say) fails the run with its reason.
  try {
    return run(o);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
