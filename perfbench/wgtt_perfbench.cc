// Repository benchmark runner: runs one workload in this process and prints
// one JSON report on stdout. perfbench/run.py builds this binary, runs it in
// a fresh process per workload (so peak RSS is the workload's own), and
// turns the report into the benchmark's result line. README.md in this
// directory documents the workloads and every metric.
//
//   wgtt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH] [--setup-only 1]
//
// Untimed set-up aside, an untraced run (--trace 0) chains drives on seeds
// derived from --seed until S seconds have passed and reports the end-to-end
// metrics as medians over drives. --setup-only 1 measures only `setup_s`;
// run.py averages it over several fresh processes, because set-up time
// differs more between processes than within one. A traced run (--trace 1) runs the
// workload's first drive untraced and traced, attributes wall time to the
// simulator's layers from outside them (event-kind profiler, metrics
// registry, chained MAC hooks, timed calls into each layer's public
// functions, kernel replays on recorded inputs) and reports the per-layer
// metrics. Both check the simulation's outputs; every failed check counts
// its drive as failed.
//
// Only public entry points are used: WgttSystem, run_parallel_city,
// benchx::run_drive, Scheduler::set_profiler, the WifiMac on_heard /
// on_tx_attempt hooks, and the standalone layer types.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ap/cyclic_queue.h"
#include "bench/harness.h"
#include "channel/fading.h"
#include "core/streaming_median.h"
#include "mobility/trajectory.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "scenario/parallel_city.h"
#include "scenario/wgtt_system.h"
#include "sim/profiler.h"
#include "transport/tcp.h"
#include "transport/udp.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace wgtt;
using Clock = std::chrono::steady_clock;

// Timings from an unoptimised or assert-enabled build are refused.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifndef WGTT_PERFBENCH_BUILD_TYPE
#define WGTT_PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// High-water mark of this process's resident memory (VmHWM); it never
/// falls. getrusage's ru_maxrss is not used: Linux carries it across
/// execve, so it would report the launching Python's footprint.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// splitmix64 finaliser: drive i of a run uses mix_seed(seed, i).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over the bit patterns of what it is fed.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: one per call the benchmark makes into a layer, kept in memory and
// written as Chrome trace_event JSON when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    const char* layer;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  int open(std::string name, const char* layer, int parent) {
    spans_.push_back({std::move(name), layer, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }
  void add(const char* name, const char* layer, int parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, layer, parent, start, end});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
          << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": 1, \"ts\": " << ns_between(origin_, s.start) / 1000.0
          << ", \"dur\": " << ns_between(s.start, s.end) / 1000.0
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kPaperUdp, kPaperTcp, kCity, kParallelCity };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Loose paper-shape bands every drive must land in: per-client mean
  /// in-array goodput (Mb/s) and completed switches per drive.
  double min_mbps;
  double max_mbps;
  std::uint64_t min_switches;
  std::uint64_t max_switches;
};

constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {"paper_udp", Kind::kPaperUdp, 5.0, 31.0, 4, 150},
    {"paper_tcp", Kind::kPaperTcp, 0.1, 20.0, 4, 150},
    {"city", Kind::kCity, 2.0, 4.2, 30, 600},
    {"parallel_city", Kind::kParallelCity, 3.0, 4.2, 30, 600},
}};

// City: bench_ext_city_scale's 128 x 32 configuration on a shorter drive.
constexpr int kCityAps = 128;
constexpr int kCityClients = 32;
constexpr double kCitySpanM = 12.0;
// Parallel city: 16 corridors x 16 APs, one client each. Two workers, not
// four: on a shared 4-core box every barrier waits for the slowest core, and
// runs at four workers spread too widely to gate on.
constexpr double kParallelSpanM = 20.0;
constexpr int kParallelWorkers = 2;
// Set-up-only repetitions per process, for the set-up median.
constexpr int kSetupReps = 15;
// Minimum timed drives per untraced run, whatever --seconds says.
constexpr int kMinTimedDrives = 3;

benchx::DriveConfig drive_config(Kind kind, std::uint64_t seed) {
  benchx::DriveConfig cfg;  // run_drive defaults: 15 mph, 30 Mb/s UDP down
  cfg.seed = seed;
  if (kind == Kind::kPaperTcp) cfg.workload = benchx::Workload::kTcpDown;
  if (kind == Kind::kCity) {
    cfg.udp_rate_mbps = 4.0;
    cfg.num_clients = kCityClients;
    cfg.pattern = benchx::Pattern::kDistributed;
    cfg.drive_span_m = kCitySpanM;
    cfg.bounded_fallback = true;
    cfg.metrics_interval = Time::sec(1);
    scenario::GeometryConfig geo;
    geo.num_aps = kCityAps;
    geo.lazy_links = true;
    cfg.geometry = geo;
  }
  return cfg;
}

scenario::ParallelCityConfig parallel_config(std::uint64_t seed, int workers) {
  scenario::ParallelCityConfig cfg;
  cfg.corridors = 16;
  cfg.aps_per_corridor = 16;
  cfg.clients_per_corridor = 1;
  cfg.udp_rate_mbps = 4.0;
  cfg.drive_span_m = kParallelSpanM;
  cfg.seed = seed;
  cfg.workers = workers;
  return cfg;
}

// ---------------------------------------------------------------------------
// Metrics report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric, zero until measured. A metric that does not
/// apply to a workload (parallel.* on a sequential drive, kernel replays on
/// parallel_city whose systems are internal to run_parallel_city) stays 0.
Metrics layer_metric_template() {
  Metrics m;
  auto put = [&m](const std::string& name, const char* unit) {
    m[name] = Metric{0.0, unit};
  };
  put("sim.events_per_sim_s", "1/sim_s");
  put("sim.events_per_wall_s", "1/s");
  put("sim.ns_per_event", "ns");
  for (int k = 0; k < sim::kNumEventCategories; ++k) {
    const std::string cat(sim::to_string(static_cast<sim::EventCategory>(k)));
    put("sim.kind." + cat + ".share", "fraction");
    put("sim.kind." + cat + ".mean_ns", "ns");
  }
  put("parallel.rounds", "count");
  put("parallel.events_per_round", "count");
  put("parallel.messages", "count");
  put("parallel.busy_share", "fraction");
  put("parallel.speedup", "x");
  put("parallel.lookahead_violations", "count");
  put("channel.samples", "count");
  put("channel.measure_ns", "ns");
  put("channel.csi_ns", "ns");
  put("phy.esnr_ns", "ns");
  put("phy.snr_for_ber_ns", "ns");
  put("phy.delivery_prob_ns", "ns");
  put("mac.frames_heard", "count");
  put("mac.decode_ratio", "fraction");
  put("mac.ampdus_sent", "count");
  put("mac.mpdus_per_ampdu", "count");
  put("mac.retx_ratio", "fraction");
  put("mac.hw_queue_depth_p99", "count");
  put("client_mac.ampdus_sent", "count");
  put("client_mac.retx_ratio", "fraction");
  put("ap.downlink_received", "count");
  put("ap.useful_copy_ratio", "fraction");
  put("ap.stale_dropped", "count");
  put("ap.cyclic_overwrites", "count");
  put("ap.cyclic_occupancy_p99", "count");
  put("ap.uplink_forwarded", "count");
  put("ap.queue_ns", "ns");
  put("net.backhaul_deliveries", "count");
  put("net.backhaul_mean_ns", "ns");
  put("net.pool_ns", "ns");
  put("core.csi_reports", "count");
  put("core.selection_evaluations", "count");
  put("core.fanout_per_packet", "count");
  put("core.dedup_hit_ratio", "fraction");
  put("core.switches", "count");
  put("core.switch_time_ms_p50", "ms");
  put("core.switch_time_ms_p99", "ms");
  put("core.median_ns", "ns");
  put("scenario.probe_calls", "count");
  put("scenario.probe_ns", "ns");
  put("scenario.probe_share", "fraction");
  put("scenario.setup_rss_mb", "MB");
  put("transport.tcp_segments", "count");
  put("transport.tcp_retx_ratio", "fraction");
  put("transport.tcp_rtos", "count");
  put("transport.tcp_rtt_ms_p99", "ms");
  put("transport.timer_events", "count");
  put("trace.overhead_pct", "%");
  return m;
}

void set(Metrics& m, const std::string& name, double value) {
  m.at(name).value = value;  // throws on a name outside the template
}

/// Layer counters read from a wgtt.metrics.v1 registry (the traced drive's,
/// or parallel_city's merged snapshot).
void registry_metrics(const obs::MetricsRegistry& reg, Metrics& m) {
  auto counter = [&reg](const char* name) -> double {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  auto hist = [&reg](const char* name) -> const obs::Histogram* {
    return reg.find_histogram(name);
  };
  auto p = [&hist](const char* name, double q) {
    const obs::Histogram* h = hist(name);
    return h != nullptr ? h->percentile(q) : 0.0;
  };
  auto sum = [&hist](const char* name) {
    const obs::Histogram* h = hist(name);
    return h != nullptr ? h->sum() : 0.0;
  };
  auto mean = [&hist](const char* name) {
    const obs::Histogram* h = hist(name);
    return h != nullptr ? h->mean() : 0.0;
  };

  set(m, "mac.ampdus_sent", counter("mac.ampdus_sent"));
  set(m, "mac.mpdus_per_ampdu", mean("mac.ampdu_mpdus"));
  set(m, "mac.retx_ratio",
      ratio(counter("mac.retransmissions"), sum("mac.ampdu_mpdus")));
  set(m, "mac.hw_queue_depth_p99", p("mac.hw_queue_depth", 0.99));
  set(m, "client_mac.ampdus_sent", counter("client_mac.ampdus_sent"));
  set(m, "client_mac.retx_ratio",
      ratio(counter("client_mac.retransmissions"), sum("client_mac.ampdu_mpdus")));
  set(m, "ap.downlink_received", counter("ap.downlink_received"));
  set(m, "ap.useful_copy_ratio",
      ratio(counter("ap.pump_enqueued"), counter("ap.downlink_received")));
  set(m, "ap.stale_dropped", counter("ap.stale_dropped"));
  set(m, "ap.cyclic_overwrites", counter("ap.cyclic_overwrites"));
  set(m, "ap.cyclic_occupancy_p99", p("ap.cyclic_occupancy", 0.99));
  set(m, "ap.uplink_forwarded", counter("ap.uplink_forwarded"));
  set(m, "core.csi_reports", counter("controller.csi_reports"));
  set(m, "core.selection_evaluations", counter("controller.selection_evaluations"));
  set(m, "core.fanout_per_packet",
      ratio(counter("controller.fanout_copies"),
            counter("controller.downlink_packets")));
  set(m, "core.dedup_hit_ratio",
      ratio(counter("controller.dedup_hits"),
            counter("controller.dedup_hits") + counter("controller.dedup_misses")));
  set(m, "core.switches", counter("controller.switches_completed"));
  set(m, "core.switch_time_ms_p50", p("controller.switch_time_ms", 0.50));
  set(m, "core.switch_time_ms_p99", p("controller.switch_time_ms", 0.99));
  set(m, "transport.tcp_segments", counter("tcp.segments_sent"));
  set(m, "transport.tcp_retx_ratio",
      ratio(counter("tcp.retransmissions"), counter("tcp.segments_sent")));
  set(m, "transport.tcp_rtos", counter("tcp.rtos"));
  set(m, "transport.tcp_rtt_ms_p99", p("tcp.rtt_ms", 0.99));
}

/// Per-category busy time from a profiler's histograms, counting only
/// events inside the histogram range (< 50 us). Used for parallel_city,
/// where each domain's profiler charges its first event of a window the
/// wall time other domains ran since its previous event; those charges land
/// in the overflow bucket and are excluded.
struct Busy {
  std::array<double, sim::kNumEventCategories> ns{};
  std::array<std::uint64_t, sim::kNumEventCategories> events{};
  [[nodiscard]] double total_ns() const {
    double t = 0.0;
    for (const double v : ns) t += v;
    return t;
  }
};

Busy in_range_busy(const obs::MetricsRegistry& reg) {
  Busy b;
  for (int k = 0; k < sim::kNumEventCategories; ++k) {
    const std::string name =
        "sim.profile." +
        std::string(sim::to_string(static_cast<sim::EventCategory>(k))) + "_us";
    const obs::Histogram* h = reg.find_histogram(name);
    if (h == nullptr) continue;
    const double width =
        (h->hi() - h->lo()) / static_cast<double>(h->num_buckets());
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      const auto n = h->bucket_count(i);
      b.ns[static_cast<std::size_t>(k)] +=
          static_cast<double>(n) *
          (h->lo() + (static_cast<double>(i) + 0.5) * width) * 1000.0;
      b.events[static_cast<std::size_t>(k)] += n;
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Traced-drive instrumentation
// ---------------------------------------------------------------------------

/// One CSI draw an AP made for a frame it heard from a client.
struct ChannelSample {
  int ap = 0;
  int client = 0;
  Time when;
  std::array<double, kNumSubcarriers> snr{};
};

/// (link, time, value) stream of AP-side CSI, in arrival order.
struct CsiPoint {
  std::uint32_t link = 0;
  Time when;
  double value = 0.0;
};

/// State a traced drive fills; a null Recorder* means an untraced drive.
struct Recorder {
  static constexpr std::size_t kSampleStride = 16;
  static constexpr std::size_t kMaxSamples = 4096;
  static constexpr std::size_t kMaxStream = 1u << 16;

  SpanLog* spans = nullptr;
  int run_span = -1;
  sim::EventProfiler profiler;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::uint64_t heard = 0;
  std::uint64_t decoded = 0;
  std::uint64_t tx_attempts = 0;
  std::uint64_t ap_client_heard = 0;
  std::uint64_t probe_calls = 0;
  std::int64_t probe_ns = 0;
  std::vector<ChannelSample> samples;
  std::vector<CsiPoint> stream;

  void record(int ap, int client, int num_clients,
              const channel::CsiMeasurement& csi) {
    if (ap_client_heard++ % kSampleStride == 0 && samples.size() < kMaxSamples) {
      samples.push_back({ap, client, csi.when, csi.subcarrier_snr_db});
    }
    if (stream.size() < kMaxStream) {
      stream.push_back({static_cast<std::uint32_t>(ap * num_clients + client),
                        csi.when, csi.mean_snr_db});
    }
  }
};

/// Chains counting hooks behind every MAC's existing on_heard and
/// on_tx_attempt handlers. Pure observation: no events, no RNG draws.
void chain_hooks(scenario::WgttSystem& sys, Recorder& rec) {
  std::unordered_map<mac::RadioId, int> client_of;
  for (int c = 0; c < sys.num_clients(); ++c) {
    client_of[sys.client(c).mac().radio()] = c;
  }
  const int nc = sys.num_clients();
  auto chain_tx = [&rec](mac::WifiMac& m) {
    m.on_tx_attempt = [&rec, prev = std::move(m.on_tx_attempt)](
                          mac::RadioId peer, phy::Mcs mcs, int mpdus) {
      if (prev) prev(peer, mcs, mpdus);
      ++rec.tx_attempts;
    };
  };
  for (int a = 0; a < sys.num_aps(); ++a) {
    mac::WifiMac& m = sys.ap(a).mac();
    m.on_heard = [&rec, a, nc, client_of, prev = std::move(m.on_heard)](
                     const mac::Frame& f, bool decoded,
                     const channel::CsiMeasurement& csi) {
      if (prev) prev(f, decoded, csi);
      ++rec.heard;
      if (decoded) ++rec.decoded;
      if (auto it = client_of.find(f.from); it != client_of.end()) {
        rec.record(a, it->second, nc, csi);
      }
    };
    chain_tx(m);
  }
  for (int c = 0; c < sys.num_clients(); ++c) {
    mac::WifiMac& m = sys.client(c).mac();
    m.on_heard = [&rec, prev = std::move(m.on_heard)](
                     const mac::Frame& f, bool decoded,
                     const channel::CsiMeasurement& csi) {
      if (prev) prev(f, decoded, csi);
      ++rec.heard;
      if (decoded) ++rec.decoded;
    };
    chain_tx(m);
  }
}

// ---------------------------------------------------------------------------
// Sequential drive (paper_udp, paper_tcp, city)
//
// The same recipe as benchx::run_drive for the WGTT system, with the set-up
// phase, the run phase and the accuracy probe separately timed. The traced
// run replays each workload's first drive through run_drive and requires an
// identical output digest, so the two cannot drift apart.
// ---------------------------------------------------------------------------

struct Outputs {
  std::vector<std::uint64_t> client_bytes;
  std::vector<std::vector<std::pair<double, int>>> assoc;
  std::vector<double> switch_ms;
};

std::uint64_t digest_of(const Outputs& o) {
  Digest d;
  for (std::size_t i = 0; i < o.client_bytes.size(); ++i) {
    d.add(o.client_bytes[i]);
    d.add(static_cast<std::uint64_t>(o.assoc[i].size()));
    for (const auto& [t, ap] : o.assoc[i]) {
      d.add(t);
      d.add(static_cast<std::uint64_t>(ap));
    }
  }
  d.add(static_cast<std::uint64_t>(o.switch_ms.size()));
  for (const double ms : o.switch_ms) d.add(ms);
  return d.value();
}

std::uint64_t digest_of(const benchx::DriveResult& r) {
  Outputs o;
  for (const auto& c : r.clients) {
    o.client_bytes.push_back(c.bytes);
    o.assoc.push_back(c.assoc_timeline);
  }
  o.switch_ms = r.switch_protocol_ms;
  return digest_of(o);
}

struct DriveOutcome {
  double setup_rss_mb = 0.0;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  double mean_mbps = 0.0;
  std::uint64_t switches = 0;
  std::size_t invariant_violations = 0;
  bool tcp_alive = true;
  std::uint64_t digest = 0;
};

struct Flow {
  std::unique_ptr<transport::UdpSource> udp_src;
  transport::UdpSink udp_sink;
  std::unique_ptr<transport::TcpSender> tcp_tx;
  std::unique_ptr<transport::TcpReceiver> tcp_rx;
  bool tcp_alive = true;
};

struct Trajectories {
  std::vector<std::unique_ptr<mobility::Trajectory>> list;
  Time horizon;
  double last_ap_x = 0.0;
};

Trajectories make_trajectories(const benchx::DriveConfig& cfg) {
  Trajectories t;
  const scenario::GeometryConfig geo =
      cfg.geometry.value_or(scenario::GeometryConfig{});
  t.last_ap_x = (geo.num_aps - 1) * geo.ap_spacing_m;
  const bool distributed = cfg.pattern == benchx::Pattern::kDistributed;
  const double span = distributed ? cfg.drive_span_m
                                  : cfg.lead_in_m + t.last_ap_x + cfg.lead_in_m;
  const double v = mph_to_mps(cfg.mph);
  t.horizon = Time::seconds(span / v);
  const double usable = std::max(0.0, t.last_ap_x - cfg.drive_span_m);
  for (int i = 0; i < cfg.num_clients; ++i) {
    if (distributed) {
      const double frac = cfg.num_clients > 1
                              ? static_cast<double>(i) / (cfg.num_clients - 1)
                              : 0.0;
      t.list.push_back(
          std::make_unique<mobility::LineDrive>(usable * frac, 0.0, v));
    } else {
      t.list.push_back(std::make_unique<mobility::LineDrive>(
          -cfg.lead_in_m - 10.0 * i, 0.0, v));
    }
  }
  return t;
}

scenario::WgttSystemConfig system_config(const benchx::DriveConfig& cfg) {
  scenario::WgttSystemConfig scfg;
  scfg.geometry = cfg.geometry.value_or(scenario::GeometryConfig{});
  scfg.geometry.seed = cfg.seed;
  scfg.controller.bounded_fallback = cfg.bounded_fallback;
  scfg.use_fanout_pool = cfg.fanout_pool;
  return scfg;
}

/// The set-up phase every drive pays: construction, add_client, start.
std::unique_ptr<scenario::WgttSystem> build_system(
    const benchx::DriveConfig& cfg, const Trajectories& traj) {
  auto sys = std::make_unique<scenario::WgttSystem>(system_config(cfg));
  for (const auto& t : traj.list) sys->add_client(t.get());
  sys->start();
  return sys;
}

using AfterRun = std::function<void(scenario::WgttSystem&)>;

DriveOutcome run_sequential(const benchx::DriveConfig& cfg, Recorder* rec,
                            int parent, const AfterRun& after_run = {}) {
  net::reset_packet_uids();
  DriveOutcome out;
  const Trajectories traj = make_trajectories(cfg);
  const int n = cfg.num_clients;
  const Time horizon = traj.horizon;
  out.sim_s = horizon.to_seconds();

  SpanLog* spans = rec != nullptr ? rec->spans : nullptr;
  const int setup_span =
      spans != nullptr ? spans->open("WgttSystem setup", "scenario", parent) : -1;
  std::unique_ptr<scenario::WgttSystem> owned = build_system(cfg, traj);
  if (spans != nullptr) spans->close(setup_span);
  out.setup_rss_mb = peak_rss_mb();
  scenario::WgttSystem& sys = *owned;
  sim::Scheduler& sched = sys.sched();

  if (rec != nullptr) {
    rec->metrics = std::make_shared<obs::MetricsRegistry>();
    sys.enable_metrics(*rec->metrics, cfg.metrics_interval);
    transport::TcpSender::register_metrics(*rec->metrics);
  }

  Outputs outputs;
  outputs.client_bytes.resize(static_cast<std::size_t>(n));
  outputs.assoc.resize(static_cast<std::size_t>(n));
  for (int d = 0; d < sys.num_domains(); ++d) {
    sys.controller(d).on_serving_changed = [&outputs](net::ClientId c,
                                                      net::ApId ap, Time t) {
      outputs.assoc[net::index_of(c)].emplace_back(
          t.to_seconds(), static_cast<int>(net::index_of(ap)));
    };
  }
  // run_drive's bitrate sampler on every client radio (part of the canonical
  // drive: it also makes client radios sample CSI for overheard frames).
  std::vector<double> bitrate_samples;
  for (int i = 0; i < n; ++i) {
    mac::WifiMac& m = sys.client(i).mac();
    m.on_heard = [&bitrate_samples, prev = std::move(m.on_heard)](
                     const mac::Frame& f, bool decoded,
                     const channel::CsiMeasurement& csi) {
      if (prev) prev(f, decoded, csi);
      if (!decoded) return;
      if (const auto* df = std::get_if<mac::DataFrame>(&f.body)) {
        bitrate_samples.push_back(phy::mcs_info(df->mcs).data_rate_mbps);
      }
    };
  }

  const bool tcp = cfg.workload == benchx::Workload::kTcpDown;
  std::vector<Flow> flows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Flow& f = flows[static_cast<std::size_t>(i)];
    const net::ClientId cid{static_cast<std::uint32_t>(i)};
    auto server_send = [&sys, i](net::Packet p) {
      p.client = net::ClientId{static_cast<std::uint32_t>(i)};
      sys.server_send(std::move(p));
    };
    if (!tcp) {
      f.udp_src = std::make_unique<transport::UdpSource>(
          sched, server_send,
          transport::UdpSource::Config{.rate_mbps = cfg.udp_rate_mbps,
                                       .client = cid});
      sys.client(i).on_downlink = [&f, &sched](const net::Packet& p) {
        f.udp_sink.on_packet(sched.now(), p);
      };
      f.udp_src->start();
    } else {
      auto client_send = [&sys, i](net::Packet p) {
        sys.client(i).send_uplink(std::move(p));
      };
      transport::TcpSender::Config scfg;
      scfg.client = cid;
      f.tcp_tx = std::make_unique<transport::TcpSender>(sched, server_send, scfg);
      if (rec != nullptr) f.tcp_tx->set_metrics(rec->metrics.get());
      transport::TcpReceiver::Config rcfg;
      rcfg.client = cid;
      f.tcp_rx =
          std::make_unique<transport::TcpReceiver>(sched, client_send, rcfg);
      sys.client(i).on_downlink = [&f](const net::Packet& p) {
        f.tcp_rx->on_data_packet(p);
      };
      f.tcp_tx->on_dead = [&f] { f.tcp_alive = false; };
      f.tcp_tx->set_unlimited(true);
    }
  }
  sys.on_server_uplink = [&flows, tcp](const net::Packet& p) {
    const auto i = static_cast<std::size_t>(net::index_of(p.client));
    if (i >= flows.size() || !tcp) return;
    if (flows[i].tcp_tx) flows[i].tcp_tx->on_ack_packet(p);
  };

  // Accuracy probe: serving vs optimal AP every 10 ms inside each client's
  // measurement window. The traced drive times every optimal_ap call.
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < n; ++i) {
    if (cfg.pattern == benchx::Pattern::kDistributed) {
      windows.emplace_back(std::min(Time::ms(500), horizon), horizon);
    } else {
      const auto& drive = static_cast<const mobility::LineDrive&>(
          *traj.list[static_cast<std::size_t>(i)]);
      const Time a = drive.time_at_x(0.0);
      const Time b = drive.time_at_x(traj.last_ap_x);
      windows.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  int probe_matches = 0;
  std::function<void()> probe = [&] {
    for (int i = 0; i < n; ++i) {
      const auto [t0, t1] = windows[static_cast<std::size_t>(i)];
      const Time now = sched.now();
      if (now < t0 || now >= t1) continue;
      const int serving = sys.serving_ap(i);
      int optimal = 0;
      if (rec != nullptr) {
        const auto c0 = Clock::now();
        optimal = sys.optimal_ap(i, now);
        const auto c1 = Clock::now();
        ++rec->probe_calls;
        rec->probe_ns += ns_between(c0, c1);
        rec->spans->add("WgttSystem::optimal_ap", "scenario", rec->run_span, c0,
                        c1);
      } else {
        optimal = sys.optimal_ap(i, now);
      }
      if (serving == optimal) ++probe_matches;
    }
    sched.schedule_in(cfg.accuracy_probe, probe);
  };
  sched.schedule_in(cfg.accuracy_probe, probe);

  if (rec != nullptr) {
    chain_hooks(sys, *rec);
    sched.set_profiler(&rec->profiler);
    rec->run_span = spans->open("WgttSystem::run_until", "sim", parent);
  }
  const double cpu0 = process_cpu_s();
  const auto t_run = Clock::now();
  sys.run_until(horizon);
  out.run_wall_s = seconds_between(t_run, Clock::now());
  out.run_cpu_s = process_cpu_s() - cpu0;
  if (rec != nullptr) {
    spans->close(rec->run_span);
    sched.set_profiler(nullptr);
  }
  out.events = sched.events_executed();

  double total_mbps = 0.0;
  for (int i = 0; i < n; ++i) {
    const Flow& f = flows[static_cast<std::size_t>(i)];
    const auto [t0, t1] = windows[static_cast<std::size_t>(i)];
    const transport::ThroughputRecorder& tr =
        tcp ? f.tcp_rx->goodput() : f.udp_sink.throughput();
    total_mbps += tr.average_mbps(t0, t1);
    outputs.client_bytes[static_cast<std::size_t>(i)] = tr.total_bytes();
    out.tcp_alive = out.tcp_alive && f.tcp_alive;
  }
  out.mean_mbps = total_mbps / n;
  for (int d = 0; d < sys.num_domains(); ++d) {
    out.switches += sys.controller(d).stats().switches_completed;
    for (const auto& sw : sys.controller(d).switch_log()) {
      outputs.switch_ms.push_back((sw.completed - sw.initiated).to_millis());
    }
  }
  out.invariant_violations = sys.check_invariants().violations.size();
  out.digest = digest_of(outputs);
  if (after_run) after_run(sys);
  return out;
}

// ---------------------------------------------------------------------------
// Parallel city
// ---------------------------------------------------------------------------

struct CityOutcome {
  scenario::ParallelCityResult result;
  double call_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
};

CityOutcome run_city(const scenario::ParallelCityConfig& cfg) {
  CityOutcome out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  out.result = scenario::run_parallel_city(cfg);
  out.call_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;
  Digest d;
  for (const double mbps : out.result.client_mbps) d.add(mbps);
  d.add(out.result.switches);
  d.add(out.result.rounds);
  d.add(out.result.messages);
  out.digest = d.value();
  return out;
}

/// Set-up share of one run_parallel_city call: everything but the engine
/// run (city construction plus collection and teardown).
double city_setup_s(const CityOutcome& o) { return o.call_s - o.result.wall_s; }

double city_sim_s(const scenario::ParallelCityConfig& cfg) {
  return cfg.drive_span_m / mph_to_mps(cfg.mph);
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

class Checks {
 public:
  /// Counts one attempted unit of work, failed when any problem was found.
  void account(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const auto& p : problems) failures_.push_back(what + ": " + p);
  }
  /// Accounts one drive, adding the same-seed repetition check: the first
  /// digest seen for a seed is the reference for every later one.
  void drive(const std::string& what, std::uint64_t seed, std::uint64_t digest,
             std::vector<std::string> problems) {
    auto [it, fresh] = digests_.emplace(seed, digest);
    if (!fresh && it->second != digest) {
      problems.push_back("output digest " + hex(digest) + " differs from " +
                         hex(it->second) + " for the same seed");
    }
    account(what, problems);
  }
  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::uint64_t, std::uint64_t> digests_;
};

std::vector<std::string> band_problems(const WorkloadSpec& w, double mbps,
                                       std::uint64_t switches,
                                       std::size_t invariant_violations) {
  std::vector<std::string> p;
  char buf[160];
  if (invariant_violations != 0) {
    std::snprintf(buf, sizeof buf, "%zu invariant violations", invariant_violations);
    p.emplace_back(buf);
  }
  if (!(mbps >= w.min_mbps && mbps <= w.max_mbps)) {
    std::snprintf(buf, sizeof buf, "goodput %.3f Mb/s outside [%.1f, %.1f]",
                  mbps, w.min_mbps, w.max_mbps);
    p.emplace_back(buf);
  }
  if (switches < w.min_switches || switches > w.max_switches) {
    std::snprintf(buf, sizeof buf, "%llu switches outside [%llu, %llu]",
                  static_cast<unsigned long long>(switches),
                  static_cast<unsigned long long>(w.min_switches),
                  static_cast<unsigned long long>(w.max_switches));
    p.emplace_back(buf);
  }
  return p;
}

std::vector<std::string> drive_problems(const WorkloadSpec& w,
                                        const DriveOutcome& o) {
  auto p = band_problems(w, o.mean_mbps, o.switches, o.invariant_violations);
  if (!o.tcp_alive) p.emplace_back("TCP connection died");
  return p;
}

std::vector<std::string> city_problems(const WorkloadSpec& w,
                                       const CityOutcome& o) {
  auto p = band_problems(w, o.result.mean_mbps, o.result.switches,
                         o.result.invariant_violations);
  if (o.result.lookahead_violations != 0) {
    p.push_back(std::to_string(o.result.lookahead_violations) +
                " lookahead violations");
  }
  return p;
}

// ---------------------------------------------------------------------------
// Kernel replays: one public function of a layer, timed over inputs recorded
// from the workload. Each pass checksums its outputs; every pass of a run
// must produce the same checksum.
// ---------------------------------------------------------------------------

struct Replay {
  double ns_per_op = 0.0;
  std::uint64_t checksum = 0;
  bool stable = true;
};

constexpr int kReplayPasses = 5;

template <class Pass>
Replay time_replay(SpanLog& spans, int parent, const char* name,
                   const char* layer, std::size_t ops, Pass&& pass) {
  Replay r;
  if (ops == 0) return r;
  std::vector<double> per_op;
  for (int i = 0; i < kReplayPasses; ++i) {
    const int span = spans.open(name, layer, parent);
    const auto t0 = Clock::now();
    const std::uint64_t c = pass();
    const auto t1 = Clock::now();
    spans.close(span);
    per_op.push_back(static_cast<double>(ns_between(t0, t1)) /
                     static_cast<double>(ops));
    if (i == 0) r.checksum = c;
    if (c != r.checksum) r.stable = false;
  }
  r.ns_per_op = median(per_op);
  return r;
}

struct ReplaySet {
  std::map<std::string, Replay> results;
  std::vector<std::string> problems;

  void keep(const std::string& name, const Replay& r) {
    results[name] = r;
    if (!r.stable) problems.push_back("kernel replay " + name + " checksum unstable");
  }
};

/// CyclicQueue put_handle/take and PacketPool refcounting at fan-out k:
/// the downlink path of one packet written into k APs' queues and read
/// from one.
void replay_fanout(SpanLog& spans, int parent, int k, ReplaySet& out) {
  constexpr std::size_t kPackets = 1u << 16;
  out.keep("ap.queue", time_replay(spans, parent, "CyclicQueue put_handle/take",
                                   "ap", kPackets, [k] {
    net::PacketPool pool;
    std::vector<ap::CyclicQueue> queues;
    for (int j = 0; j < k; ++j) queues.emplace_back(&pool);
    Digest d;
    net::Packet p;
    p.payload_bytes = 1400;
    for (std::size_t i = 0; i < kPackets; ++i) {
      p.uid = i;
      const auto idx = static_cast<std::uint16_t>(i);
      const net::PacketPool::Handle h = pool.acquire(net::Packet(p));
      for (int j = 1; j < k; ++j) pool.add_ref(h);
      for (auto& q : queues) q.put_handle(idx, h);
      if (auto got = queues.front().take(idx)) d.add(got->uid);
    }
    d.add(static_cast<std::uint64_t>(pool.in_use()));
    return d.value();
  }));
  out.keep("net.pool", time_replay(spans, parent, "PacketPool acquire/add_ref/release",
                                   "net", kPackets, [k] {
    net::PacketPool pool;
    Digest d;
    net::Packet p;
    p.payload_bytes = 1400;
    for (std::size_t i = 0; i < kPackets; ++i) {
      p.uid = i;
      const net::PacketPool::Handle h = pool.acquire(net::Packet(p));
      for (int j = 1; j < k; ++j) pool.add_ref(h);
      for (int j = 1; j < k; ++j) pool.drop(h);
      d.add(pool.release(h).uid);
    }
    return d.value();
  }));
}

/// Channel, PHY and median replays on the traced drive's recorded CSI.
/// LinkChannel::measure is additionally required to reproduce, bit for bit,
/// the CSI the simulation drew at the same place and time.
void replay_recorded(SpanLog& spans, int parent, scenario::WgttSystem& sys,
                     const Recorder& rec, std::uint64_t seed, ReplaySet& out) {
  const auto& samples = rec.samples;
  const std::size_t n = samples.size();
  const scenario::TestbedGeometry& geo = sys.geometry();
  std::vector<channel::Vec2> pos;
  pos.reserve(n);
  for (const auto& s : samples) pos.push_back(geo.client_position(s.client, s.when));

  std::size_t mismatches = 0;
  out.keep("channel.measure", time_replay(spans, parent, "LinkChannel::measure",
                                          "channel", n, [&] {
    Digest d;
    mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ChannelSample& s = samples[i];
      const channel::CsiMeasurement m =
          geo.link(s.ap, s.client).measure(pos[i], s.when);
      if (std::memcmp(m.subcarrier_snr_db.data(), s.snr.data(),
                      sizeof(double) * s.snr.size()) != 0) {
        ++mismatches;
      }
      d.add(m.mean_snr_db);
    }
    return d.value();
  }));
  if (mismatches != 0) {
    out.problems.push_back(std::to_string(mismatches) +
                           " LinkChannel::measure replays differ from the "
                           "simulation's CSI");
  }

  Rng rng(seed);
  const channel::TappedDelayChannel fading(channel::TappedDelayChannel::Config{},
                                           rng);
  out.keep("channel.csi", time_replay(spans, parent, "TappedDelayChannel::csi",
                                      "channel", n, [&] {
    Digest d;
    for (std::size_t i = 0; i < n; ++i) {
      d.add(fading.csi(pos[i], samples[i].when).mean_power());
    }
    return d.value();
  }));

  std::vector<double> esnr(n);
  out.keep("phy.esnr", time_replay(spans, parent, "phy::esnr_metric_db", "phy", n,
                                   [&] {
    Digest d;
    for (std::size_t i = 0; i < n; ++i) {
      esnr[i] = phy::esnr_metric_db(samples[i].snr);
      d.add(esnr[i]);
    }
    return d.value();
  }));

  // snr_for_ber inverts bit_error_rate; feed it the BER each recorded
  // sample's mean SNR gives under a modulation cycling through all four.
  std::vector<std::pair<phy::Modulation, double>> ber_inputs;
  ber_inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto m = static_cast<phy::Modulation>(i % 4);
    double mean_db = 0.0;
    for (const double v : samples[i].snr) mean_db += v;
    mean_db /= static_cast<double>(samples[i].snr.size());
    const double ber = phy::bit_error_rate(m, std::pow(10.0, mean_db / 10.0));
    ber_inputs.emplace_back(m, std::clamp(ber, 1e-9, 0.4));
  }
  out.keep("phy.snr_for_ber", time_replay(spans, parent, "phy::snr_for_ber", "phy",
                                          n, [&] {
    Digest d;
    for (const auto& [m, ber] : ber_inputs) d.add(phy::snr_for_ber(m, ber));
    return d.value();
  }));
  out.keep("phy.delivery_prob", time_replay(spans, parent,
                                            "phy::mpdu_delivery_probability",
                                            "phy", n, [&] {
    Digest d;
    for (std::size_t i = 0; i < n; ++i) {
      d.add(phy::mpdu_delivery_probability(
          esnr[i], static_cast<phy::Mcs>(i % phy::kNumMcs), 1500));
    }
    return d.value();
  }));

  // Per-link sliding medians over the recorded CSI stream, at the rate the
  // APs reported it, with the controller's selection window.
  const auto& stream = rec.stream;
  const Time window = core::Controller::Config{}.selection_window;
  std::uint32_t links = 0;
  for (const auto& p : stream) links = std::max(links, p.link + 1);
  out.keep("core.median", time_replay(spans, parent,
                                      "StreamingMedian add/lower_median", "core",
                                      stream.size(), [&] {
    std::vector<core::StreamingMedian> medians(links, core::StreamingMedian(window));
    Digest d;
    for (const auto& p : stream) {
      core::StreamingMedian& m = medians[p.link];
      m.add(p.when, p.value);
      d.add(m.lower_median(p.when).value_or(0.0));
    }
    return d.value();
  }));
}

void put_replays(const ReplaySet& r, Metrics& m) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"channel.measure", "channel.measure_ns"},
      {"channel.csi", "channel.csi_ns"},
      {"phy.esnr", "phy.esnr_ns"},
      {"phy.snr_for_ber", "phy.snr_for_ber_ns"},
      {"phy.delivery_prob", "phy.delivery_prob_ns"},
      {"core.median", "core.median_ns"},
      {"ap.queue", "ap.queue_ns"},
      {"net.pool", "net.pool_ns"},
  };
  for (const auto& [kernel, metric] : kNames) {
    if (auto it = r.results.find(kernel); it != r.results.end()) {
      set(m, metric, it->second.ns_per_op);
    }
  }
}

int fanout_k(const Metrics& m) {
  return std::max(1, static_cast<int>(std::lround(m.at("core.fanout_per_packet").value)));
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Report {
  Metrics metrics;
  std::map<std::string, std::string> checksums;
  /// (sim_speed, goodput Mb/s, switches) per timed drive, for diagnosis.
  std::vector<std::array<double, 3>> drives;
};

/// Set-up-only repetitions of drive 0's system; the median is this
/// process's `setup_s`. Run first, in a fresh process, so every run measures
/// set-up from the same state.
double setup_median(const WorkloadSpec& w, std::uint64_t seed) {
  const std::uint64_t s0 = mix_seed(seed, 0);
  std::vector<double> setup;
  if (w.kind == Kind::kParallelCity) {
    // One worker: the city is built the same for any worker count, and the
    // engine's thread start-up belongs to the run, not the set-up.
    scenario::ParallelCityConfig cfg = parallel_config(s0, 1);
    cfg.horizon = Time::ns(1);
    for (int r = 0; r < kSetupReps; ++r) setup.push_back(city_setup_s(run_city(cfg)));
  } else {
    const benchx::DriveConfig cfg = drive_config(w.kind, s0);
    const Trajectories traj = make_trajectories(cfg);
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = Clock::now();
      auto sys = build_system(cfg, traj);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
  }
  return median(setup);
}

/// Untraced run: set-up repetitions, a warm-up drive, then timed drives
/// until `seconds` have passed. Timings are medians over drives.
void untraced_run(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                  Checks& checks, Report& rep) {
  rep.metrics["setup_s"] = {setup_median(w, seed), "s"};
  struct Timed {
    double speed;
    double cpu_per_sim;
    double mbps;
    std::uint64_t switches;
  };
  // Runs and checks one drive on seed s.
  auto drive = [&](const std::string& what, std::uint64_t s) -> Timed {
    if (w.kind == Kind::kParallelCity) {
      const scenario::ParallelCityConfig cfg = parallel_config(s, kParallelWorkers);
      const CityOutcome o = run_city(cfg);
      checks.drive(what, s, o.digest, city_problems(w, o));
      const double sim_s = city_sim_s(cfg);
      // Set-up is single-threaded, so its CPU time is its wall time.
      return {sim_s / o.result.wall_s, (o.cpu_s - city_setup_s(o)) / sim_s,
              o.result.mean_mbps, o.result.switches};
    }
    const DriveOutcome o = run_sequential(drive_config(w.kind, s), nullptr, -1);
    checks.drive(what, s, o.digest, drive_problems(w, o));
    return {o.sim_s / o.run_wall_s, o.run_cpu_s / o.sim_s, o.mean_mbps,
            o.switches};
  };

  drive("warm-up drive", mix_seed(seed, 0));
  std::vector<double> speed, cpu_per_sim;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; seconds_between(start, Clock::now()) < seconds ||
                            speed.size() < kMinTimedDrives;
       ++i) {
    const Timed t = drive("drive " + std::to_string(i), mix_seed(seed, i));
    speed.push_back(t.speed);
    cpu_per_sim.push_back(t.cpu_per_sim);
    rep.drives.push_back({t.speed, t.mbps, static_cast<double>(t.switches)});
  }
  rep.metrics["sim_speed"] = {median(speed), "sim_s/s"};
  rep.metrics["cpu_s_per_sim_s"] = {median(cpu_per_sim), "s"};
  rep.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

void put_profile_seq(const sim::EventProfiler& prof, double wall_s, Metrics& m) {
  for (int k = 0; k < sim::kNumEventCategories; ++k) {
    const auto cat = static_cast<sim::EventCategory>(k);
    const std::string name(sim::to_string(cat));
    const double ns = static_cast<double>(prof.total_ns(cat));
    const double ev = static_cast<double>(prof.events(cat));
    set(m, "sim.kind." + name + ".share", ratio(ns * 1e-9, wall_s));
    set(m, "sim.kind." + name + ".mean_ns", ratio(ns, ev));
  }
  const auto bh = sim::EventCategory::kBackhaul;
  set(m, "net.backhaul_deliveries", static_cast<double>(prof.events(bh)));
  set(m, "net.backhaul_mean_ns",
      ratio(static_cast<double>(prof.total_ns(bh)),
            static_cast<double>(prof.events(bh))));
  set(m, "transport.timer_events",
      static_cast<double>(prof.events(sim::EventCategory::kTimer)));
}

/// Traced run of a sequential workload: drive 0 untraced once as warm-up
/// (and for the set-up RSS), then alternately untraced and traced
/// kOverheadPairs times, then through benchx::run_drive. The first traced
/// drive supplies the layer metrics and the kernel replays' inputs.
constexpr int kOverheadPairs = 3;

void traced_sequential(const WorkloadSpec& w, std::uint64_t seed,
                       SpanLog& spans, int root, Checks& checks, Report& rep) {
  Metrics& m = rep.metrics;
  const std::uint64_t s0 = mix_seed(seed, 0);
  const benchx::DriveConfig cfg = drive_config(w.kind, s0);

  // Untraced drives get one opaque span each, so the root's self time is
  // only the benchmark's own glue.
  auto untraced = [&](const char* what) {
    const int span = spans.open(what, "untraced", root);
    DriveOutcome o = run_sequential(cfg, nullptr, root);
    spans.close(span);
    return o;
  };
  const DriveOutcome warm = untraced("untraced warm-up drive");
  set(m, "scenario.setup_rss_mb", warm.setup_rss_mb);
  checks.drive("warm-up drive", s0, warm.digest, drive_problems(w, warm));

  Recorder rec;
  rec.spans = &spans;
  ReplaySet replays;
  DriveOutcome traced;
  std::vector<double> ref_speed, traced_speed;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const DriveOutcome ref = untraced("untraced drive");
    checks.drive("untraced drive", s0, ref.digest, drive_problems(w, ref));
    ref_speed.push_back(ref.sim_s / ref.run_wall_s);

    Recorder again;
    again.spans = &spans;
    Recorder& r = i == 0 ? rec : again;
    const int drive_span = spans.open("traced drive", "scenario", root);
    AfterRun replay_inputs;
    if (i == 0) {
      replay_inputs = [&](scenario::WgttSystem& sys) {
        replay_recorded(spans, drive_span, sys, rec, s0, replays);
      };
    }
    const DriveOutcome t = run_sequential(cfg, &r, drive_span, replay_inputs);
    spans.close(drive_span);
    if (i == 0) traced = t;
    std::vector<std::string> p = drive_problems(w, t);
    const double coverage =
        ratio(static_cast<double>(r.profiler.total_ns()) * 1e-9, t.run_wall_s);
    if (coverage < 0.9) {
      p.push_back("event-kind totals cover only " + std::to_string(coverage) +
                  " of the traced run's wall time");
    }
    checks.drive("traced drive", s0, t.digest, p);
    traced_speed.push_back(t.sim_s / t.run_wall_s);
  }

  {
    const int span = spans.open("benchx::run_drive", "scenario", root);
    const benchx::DriveResult r = benchx::run_drive(cfg);
    spans.close(span);
    std::vector<std::string> p;
    if (digest_of(r) != warm.digest) {
      p.push_back("benchx::run_drive digest " + hex(digest_of(r)) +
                  " differs from the benchmark's drive " + hex(warm.digest));
    }
    checks.account("run_drive cross-check", p);
  }

  registry_metrics(*rec.metrics, m);
  replay_fanout(spans, root, fanout_k(m), replays);
  checks.account("kernel replays", replays.problems);
  put_replays(replays, m);
  for (const auto& [name, r] : replays.results) rep.checksums[name] = hex(r.checksum);

  put_profile_seq(rec.profiler, traced.run_wall_s, m);
  const double events = static_cast<double>(warm.events);
  const double speed = median(ref_speed);
  set(m, "sim.events_per_sim_s", events / warm.sim_s);
  set(m, "sim.events_per_wall_s", events / warm.sim_s * speed);
  set(m, "sim.ns_per_event", 1e9 * warm.sim_s / (events * speed));
  set(m, "channel.samples", static_cast<double>(rec.heard + rec.tx_attempts));
  set(m, "mac.frames_heard", static_cast<double>(rec.heard));
  set(m, "mac.decode_ratio",
      ratio(static_cast<double>(rec.decoded), static_cast<double>(rec.heard)));
  set(m, "scenario.probe_calls", static_cast<double>(rec.probe_calls));
  set(m, "scenario.probe_ns",
      ratio(static_cast<double>(rec.probe_ns), static_cast<double>(rec.probe_calls)));
  set(m, "scenario.probe_share",
      ratio(static_cast<double>(rec.probe_ns) * 1e-9, traced.run_wall_s));
  set(m, "trace.overhead_pct", (speed / median(traced_speed) - 1.0) * 100.0);
}

/// Traced run of parallel_city: untraced at N workers, with the merged
/// metrics snapshot at N and at 1 worker (which must be byte-identical),
/// and profiled at N workers.
void traced_parallel(const WorkloadSpec& w, std::uint64_t seed, SpanLog& spans,
                     int root, Checks& checks, Report& rep) {
  Metrics& m = rep.metrics;
  const std::uint64_t s0 = mix_seed(seed, 0);
  const int n = kParallelWorkers;
  auto city = [&](const char* what, scenario::ParallelCityConfig cfg) {
    const int span = spans.open(what, "sim.parallel", root);
    CityOutcome o = run_city(cfg);
    spans.close(span);
    checks.drive(what, s0, o.digest, city_problems(w, o));
    return o;
  };

  {
    scenario::ParallelCityConfig cfg = parallel_config(s0, n);
    cfg.horizon = Time::ns(1);
    const int span = spans.open("parallel city setup", "scenario", root);
    run_city(cfg);
    spans.close(span);
    set(m, "scenario.setup_rss_mb", peak_rss_mb());
  }
  const scenario::ParallelCityConfig base = parallel_config(s0, n);
  const CityOutcome plain = city("run_parallel_city untraced", base);

  scenario::ParallelCityConfig with_metrics = base;
  with_metrics.collect_metrics = true;
  const CityOutcome snap_n = city("run_parallel_city metrics N workers", with_metrics);
  with_metrics.workers = 1;
  const CityOutcome snap_1 = city("run_parallel_city metrics 1 worker", with_metrics);
  {
    std::vector<std::string> p;
    if (snap_n.result.metrics->to_json() != snap_1.result.metrics->to_json()) {
      p.emplace_back("merged metrics snapshot differs between 1 and N workers");
    }
    checks.account("worker-count identity", p);
  }

  scenario::ParallelCityConfig with_profile = base;
  with_profile.profile = true;
  const CityOutcome prof = city("run_parallel_city profiled", with_profile);

  registry_metrics(*snap_n.result.metrics, m);
  const scenario::ParallelCityResult& r = plain.result;
  const double sim_s = city_sim_s(base);
  const double events = static_cast<double>(r.events_executed);
  set(m, "sim.events_per_sim_s", events / sim_s);
  set(m, "sim.events_per_wall_s", events / r.wall_s);
  set(m, "sim.ns_per_event", r.wall_s * 1e9 / events);
  set(m, "parallel.rounds", static_cast<double>(r.rounds));
  set(m, "parallel.events_per_round", ratio(events, static_cast<double>(r.rounds)));
  set(m, "parallel.messages", static_cast<double>(r.messages));
  set(m, "parallel.lookahead_violations", static_cast<double>(r.lookahead_violations));
  set(m, "parallel.speedup", snap_1.result.wall_s / snap_n.result.wall_s);

  const Busy busy = in_range_busy(*prof.result.metrics);
  const double busy_total = busy.total_ns();
  set(m, "parallel.busy_share",
      ratio(busy_total * 1e-9, prof.result.wall_s * prof.result.workers_used));
  for (int k = 0; k < sim::kNumEventCategories; ++k) {
    const std::string name(sim::to_string(static_cast<sim::EventCategory>(k)));
    const auto ku = static_cast<std::size_t>(k);
    set(m, "sim.kind." + name + ".share", ratio(busy.ns[ku], busy_total));
    set(m, "sim.kind." + name + ".mean_ns",
        ratio(busy.ns[ku], static_cast<double>(busy.events[ku])));
  }
  const auto bh = static_cast<std::size_t>(sim::EventCategory::kBackhaul);
  set(m, "net.backhaul_deliveries", static_cast<double>(busy.events[bh]));
  set(m, "net.backhaul_mean_ns",
      ratio(busy.ns[bh], static_cast<double>(busy.events[bh])));
  set(m, "transport.timer_events",
      static_cast<double>(
          busy.events[static_cast<std::size_t>(sim::EventCategory::kTimer)]));

  ReplaySet replays;
  replay_fanout(spans, root, fanout_k(m), replays);
  checks.account("kernel replays", replays.problems);
  put_replays(replays, m);
  for (const auto& [name, rr] : replays.results) rep.checksums[name] = hex(rr.checksum);

  const double speed_plain = sim_s / r.wall_s;
  const double speed_prof = sim_s / prof.result.wall_s;
  set(m, "trace.overhead_pct", (speed_plain / speed_prof - 1.0) * 100.0);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "wgtt_perfbench: %s\nusage: wgtt_perfbench --workload "
               "{paper_udp|paper_tcp|city|parallel_city} --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--setup-only 0|1]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::string_view(w.name) == v) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        usage("bad --trace");
      }
      a.trace = std::string_view(v) == "1";
    } else if (k == "--setup-only") {
      a.setup_only = std::string_view(v) == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

void print_report(const Args& a, const Checks& checks, const Report& rep) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
              a.workload->name, static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0);
  std::printf(" \"build_type\": \"%s\", \"compiler\": \"%s\", \"optimized\": %s,\n",
              WGTT_PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
              kOptimizedBuild ? "true" : "false");
  std::printf(" \"attempted\": %d, \"failed\": %d, \"failures\": [",
              checks.attempted(), checks.failed());
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(checks.failures()[i]).c_str());
  }
  std::printf("],\n \"drives\": [");
  for (std::size_t i = 0; i < rep.drives.size(); ++i) {
    const auto& d = rep.drives[i];
    std::printf("%s[%.6g, %.6g, %.0f]", i == 0 ? "" : ", ", d[0], d[1], d[2]);
  }
  std::printf("],\n \"checksums\": {");
  bool first = true;
  for (const auto& [k, v] : rep.checksums) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("},\n \"metrics\": {");
  first = true;
  for (const auto& [k, v] : rep.metrics) {
    std::printf("%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ",", k.c_str(),
                std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str());
    first = false;
  }
  std::printf("\n }}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "wgtt_perfbench: refusing to time an unoptimised or "
                 "assert-enabled build (build type %s)\n",
                 WGTT_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Checks checks;
  Report rep;
  try {
    if (args.setup_only) {
      rep.metrics["setup_s"] = {setup_median(*args.workload, args.seed), "s"};
    } else if (!args.trace) {
      untraced_run(*args.workload, args.seed, args.seconds, checks, rep);
    } else {
      rep.metrics = layer_metric_template();
      SpanLog spans;
      const int root = spans.open(args.workload->name, "benchmark", -1);
      if (args.workload->kind == Kind::kParallelCity) {
        traced_parallel(*args.workload, args.seed, spans, root, checks, rep);
      } else {
        traced_sequential(*args.workload, args.seed, spans, root, checks, rep);
      }
      spans.close(root);
      if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
        std::fprintf(stderr, "wgtt_perfbench: cannot write %s\n",
                     args.spans_path.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wgtt_perfbench: %s\n", e.what());
    return 1;
  }
  print_report(args, checks, rep);
  return 0;
}
