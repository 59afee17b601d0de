// Shared experiment harness for the reproduction benches.
//
// Every table and figure in the paper's evaluation reduces to "drive one or
// more clients past the AP array under a traffic workload and measure".
// run_drive() executes that recipe for either system (WGTT or Enhanced
// 802.11r), either transport (bulk TCP, downlink UDP CBR, uplink UDP CBR),
// any speed, any multi-client pattern (Figure 19), and the ablation knobs,
// and returns the measurements the benches print as paper-style rows.
//
// Throughput is averaged over the in-array window (between the first and
// last AP's road coordinates), matching the paper's "while the client
// transits through eight APs".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "obs/metrics.h"
#include "scenario/baseline_system.h"
#include "scenario/wgtt_system.h"
#include "transport/flow_stats.h"

namespace wgtt::benchx {

enum class System { kWgtt, kBaseline };
enum class Workload { kUdpDown, kTcpDown, kUdpUp };
enum class Pattern {
  kSingle,
  kFollowing,
  kParallel,
  kOpposing,
  /// City-scale pattern: clients spread at constant density along the
  /// array, each driving `drive_span_m` from its own start — the client
  /// density (and hence contention per AP) stays flat over the whole
  /// measurement window instead of a convoy sweeping past each AP once.
  kDistributed,
};

struct DriveConfig {
  System system = System::kWgtt;
  Workload workload = Workload::kUdpDown;
  double mph = 15.0;  // 0 = parked mid-array
  double udp_rate_mbps = 30.0;
  std::uint64_t seed = 1;
  int num_clients = 1;
  Pattern pattern = Pattern::kSingle;
  double lead_in_m = 15.0;
  /// Per-client drive distance for Pattern::kDistributed; also sets the
  /// horizon (drive_span_m / speed) so every client stays in-array for the
  /// whole run. Ignored by the other patterns.
  double drive_span_m = 90.0;
  /// WgttSystemConfig::channel_reuse (paper §7 multi-channel): 1 is the
  /// paper's single-channel deployment, N > 1 puts AP i on channel
  /// 1 + i mod N. WGTT system only.
  int channel_reuse = 1;
  /// Controller::Config::bounded_fallback — bound the cold-start downlink
  /// fan-out to the client's spatial neighborhood instead of every AP.
  /// Off by default (byte-identity with the seed); the city bench opts in.
  bool bounded_fallback = false;

  // Backhaul cost model (DESIGN.md §10). All default to the seed engine's
  // infinite pipe; the saturation bench and the model tests opt in.
  /// Per-(controller, AP) link rate in Mb/s. Unset/0 = infinite pipe.
  std::optional<double> backhaul_link_rate_mbps;
  /// Per-link byte-queue bound (only read when a finite rate is set).
  std::optional<std::size_t> backhaul_queue_bytes;
  /// Coalesce downlink fan-out into batched deliveries.
  bool backhaul_batching = false;
  /// Batch window override (Backhaul::Config's 500 us default when unset).
  std::optional<Time> backhaul_batch_window;
  /// Ignored, like WgttSystemConfig::use_fanout_pool: the fan-out is always
  /// single-copy. Kept so existing callers compile.
  bool fanout_pool = true;

  // Knobs (paper parameters / ablations).
  std::optional<Time> selection_window;  // W (Figure 21)
  std::optional<Time> hysteresis;        // Figure 22
  bool ba_forwarding = true;             // ablation
  bool start_from_newest = false;        // queue-management ablation
  core::Controller::SelectionMetric metric =
      core::Controller::SelectionMetric::kMedianEsnr;
  /// Loss applied to the control plane only (stop/start/ack), via the
  /// backhaul's per-message-type fault plans. Exercises the retransmission
  /// and epoch-idempotency machinery without touching the data path.
  /// WGTT system only.
  double control_loss_rate = 0.0;
  /// Control retransmission timeout override (Controller::Config's 30 ms
  /// default when unset). A shorter timeout tightens switch-time tails
  /// under control loss at the cost of more spurious retransmits.
  std::optional<Time> ack_timeout;
  /// Scripted per-AP faults (crash/restart/zombie/partition). Non-empty
  /// auto-enables the controller's heartbeat liveness machinery. WGTT
  /// system only.
  std::vector<scenario::ApFaultScript> ap_faults;
  /// Liveness tuning used by the failover benches (only meaningful when
  /// ap_faults is non-empty or liveness was enabled explicitly).
  std::optional<Time> heartbeat_interval;
  std::optional<int> heartbeat_miss_threshold;

  // Multi-controller domains (DESIGN.md §12). All default to the seed
  // engine's single controller (byte-identical snapshots).
  /// Number of ControllerDomains the AP array is split into. 1 = the
  /// single-controller engine; >1 enables inter-domain handover, the
  /// controller-to-controller heartbeat, and crash failover.
  int num_domains = 1;
  /// Scripted controller crash/restart faults (only read when
  /// num_domains > 1). WGTT system only.
  std::vector<scenario::ControllerFaultScript> controller_faults;
  std::optional<scenario::GeometryConfig> geometry;  // density sweeps
  std::optional<Time> baseline_persistence;          // stock vs enhanced
  /// Sampling period of the serving-vs-optimal accuracy probe.
  Time accuracy_probe = Time::ms(10);

  /// Collect a MetricsRegistry snapshot (DriveResult::metrics). Implied by
  /// a non-empty metrics_path. WGTT system only (the baseline predates the
  /// metrics layer).
  bool collect_metrics = false;
  /// Write the JSON snapshot here after the run ("" = don't write).
  std::string metrics_path;
  /// System-gauge sampling period while metrics are enabled.
  Time metrics_interval = Time::ms(100);
  /// Record wall-clock engine throughput as the `sim.events_per_sec` gauge
  /// (implies collect_metrics). Off by default: the gauge depends on host
  /// load, so it would break the byte-identical-snapshot guarantee that
  /// jobs=1 and jobs=N runs otherwise share.
  bool record_perf = false;

  // --- observability knobs (DESIGN.md §6.4-§6.6). All off by default; all
  // follow the record_perf rule: wall-clock instruments never enter a
  // snapshot unless explicitly requested. WGTT system only. ---
  /// Attach a sim::EventProfiler for the run and flush the per-event-kind
  /// wall-time breakdown as `sim.profile.*` (implies collect_metrics).
  bool profile = false;
  /// Write the per-client TimelineRecorder series here as JSONL ("" = no
  /// timeline). The tick Timer adds scheduler events, so a timeline-ON run
  /// is a different (still deterministic) event sequence than OFF — same
  /// caveat as the metrics sampler.
  std::string timeline_path;
  /// TimelineRecorder sampling period (only read when timeline_path is
  /// set — present-but-unused is free, the knobs-at-rest contract).
  Time timeline_tick = Time::ms(100);
  /// Attach a trace::Tracer and write its retained ring here as CSV
  /// ("" = none). Attaching only chains observation hooks: no scheduler
  /// events, no RNG draws — byte-identity is preserved. With metrics_path
  /// also set, the snapshot gains the `trace.events_dropped` gauge (ring
  /// evictions); nothing else in the snapshot moves.
  std::string trace_csv_path;
  /// Dump a trace::write_postmortem bundle into this directory when
  /// check_invariants reports violations at end of run. The
  /// WGTT_DUMP_ON_VIOLATION environment variable supplies a directory when
  /// this is empty.
  std::string postmortem_dir;
};

struct ClientResult {
  double mbps = 0.0;       // in-array average goodput
  double accuracy = 0.0;   // fraction of probes with serving == optimal AP
  bool tcp_alive = true;   // TCP connection survived the drive
  double tcp_death_s = -1.0;  // when it died (if it did)
  std::uint64_t bytes = 0;
  std::vector<transport::ThroughputRecorder::Point> series;  // 100 ms bins
  /// (time s, ap index) association/serving timeline.
  std::vector<std::pair<double, int>> assoc_timeline;
  /// Uplink loss rate per 500 ms window (Workload::kUdpUp).
  std::vector<double> uplink_loss_windows;
};

struct DriveResult {
  std::vector<ClientResult> clients;
  double duration_s = 0.0;
  double in_array_s = 0.0;
  std::uint64_t switches = 0;
  std::vector<double> switch_protocol_ms;  // per-switch stop->ack latency
  std::vector<double> bitrate_mbps_samples;  // per-A-MPDU PHY rate samples
  std::uint64_t ba_collided = 0;   // BA frames that collided at the client
  std::uint64_t ba_heard = 0;      // BA frames heard at the client
  std::uint64_t retransmissions = 0;
  std::uint64_t mpdus_delivered = 0;
  std::uint64_t delivered_via_forwarded_ba = 0;
  std::uint64_t uplink_dups_dropped = 0;
  std::uint64_t uplink_packets = 0;
  std::uint64_t stale_dropped = 0;
  // Switching-protocol health (WGTT system only).
  std::uint64_t stop_retransmissions = 0;
  std::uint64_t stale_acks_ignored = 0;
  /// End-of-run WgttSystem::check_invariants violations (0 = clean).
  std::size_t invariant_violations = 0;
  // AP liveness & failover (zero unless ap_faults/liveness configured).
  std::uint64_t aps_marked_dead = 0;
  std::uint64_t aps_readmitted = 0;
  std::uint64_t forced_failovers = 0;
  std::uint64_t failovers_unserved = 0;
  /// Downlink packets dropped because the fan-out set came up empty, summed
  /// over every controller (Controller::Stats::fanout_empty_drops).
  std::uint64_t fanout_empty_drops = 0;
  /// Downlink packets the clients' uid filters dropped (failover replay
  /// overlap that escaped the MAC scoreboard window).
  std::uint64_t downlink_dups_dropped = 0;
  // Multi-controller domains (zero unless num_domains > 1), summed over
  // every controller.
  std::uint64_t handovers_completed = 0;  ///< inter-domain transfers landed
  std::uint64_t handover_retries = 0;
  std::uint64_t handover_aborts = 0;
  std::uint64_t penalty_blocked = 0;
  std::uint64_t controllers_marked_dead = 0;
  std::uint64_t clients_adopted = 0;
  std::uint64_t ownership_yields = 0;
  /// Populated when DriveConfig::collect_metrics (or metrics_path) is set.
  std::shared_ptr<obs::MetricsRegistry> metrics;

  [[nodiscard]] double mean_mbps() const {
    if (clients.empty()) return 0.0;
    double s = 0.0;
    for (const auto& c : clients) s += c.mbps;
    return s / static_cast<double>(clients.size());
  }
  [[nodiscard]] double mean_accuracy() const {
    if (clients.empty()) return 0.0;
    double s = 0.0;
    for (const auto& c : clients) s += c.accuracy;
    return s / static_cast<double>(clients.size());
  }
};

/// Runs one drive-by experiment. Deterministic per config.
DriveResult run_drive(const DriveConfig& config);

/// Fans independent trials across a worker-thread pool.
///
/// Every (seed, parameter-point) trial a bench sweeps is an isolated
/// run_drive(): its own WgttSystem, its own Scheduler, its own RNG stream
/// seeded from the config, and (when requested) its own MetricsRegistry.
/// Nothing is shared between trials, so they parallelise without locks —
/// workers claim trial indices from an atomic cursor and write results
/// into pre-sized slots.
///
/// Determinism contract: results are ordered by submission index, and any
/// aggregation a caller does in that order (as mean_mbps_over_seeds and
/// the converted benches do) is bit-identical regardless of jobs — the
/// same floating-point reductions happen in the same order whether trials
/// ran on one thread or eight. merged_metrics() likewise folds per-trial
/// registries in submission order. DESIGN.md §8 spells out the contract.
///
/// Usage:
///   TrialPool pool({.jobs = jobs});
///   for (auto& cfg : configs) pool.submit(cfg);
///   std::vector<DriveResult> results = pool.run();  // submission order
class TrialPool {
 public:
  struct Options {
    /// Worker threads; 0 = std::thread::hardware_concurrency(), 1 = run
    /// inline on the calling thread (no threads spawned).
    int jobs = 0;
    /// Write one merged `wgtt.metrics.v1` snapshot here after run().
    /// Replaces per-trial DriveConfig::metrics_path, which would have each
    /// trial overwrite the previous trial's file (submit() redirects it —
    /// see there).
    std::string metrics_path;
    /// Record the pool's wall-clock `harness.trials_per_sec` gauge in the
    /// merged registry. Off by default for the same reason as
    /// DriveConfig::record_perf: wall-clock values differ run to run.
    bool record_throughput = false;
  };

  TrialPool() = default;
  explicit TrialPool(Options opts) : opts_(std::move(opts)) {}

  /// Queues one trial; returns its index into run()'s result vector.
  /// A non-empty config.metrics_path is redirected into collect_metrics
  /// (and, if the pool has no metrics_path yet, adopted as the pool's):
  /// trials must not race on one output file, the pool writes the merged
  /// snapshot exactly once after the join.
  std::size_t submit(DriveConfig config);

  /// Runs every submitted trial and returns results in submission order.
  /// Blocks until all workers join. The first exception thrown by a trial
  /// is rethrown here (remaining trials still finish). Clears the queue,
  /// so a pool can be reused for a second batch.
  std::vector<DriveResult> run();

  /// Per-trial registries folded in submission order; null until run(),
  /// and null after it when no trial collected metrics and
  /// record_throughput is off.
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& merged_metrics()
      const {
    return merged_;
  }

  /// Trials completed per wall-clock second in the last run().
  [[nodiscard]] double trials_per_sec() const { return trials_per_sec_; }

  /// Worker count run() will use (Options::jobs resolved against
  /// hardware_concurrency, before clamping to the trial count).
  [[nodiscard]] int jobs() const;

  [[nodiscard]] std::size_t pending() const { return trials_.size(); }

 private:
  Options opts_;
  std::vector<DriveConfig> trials_;
  std::shared_ptr<obs::MetricsRegistry> merged_;
  double trials_per_sec_ = 0.0;
};

/// Bench command-line options shared by the TrialPool-converted benches,
/// parsed (and stripped) ahead of benchmark::Initialize — which aborts on
/// flags it does not know.
struct BenchOptions {
  int jobs = 1;      ///< --jobs N / --jobs=N: TrialPool worker threads.
  bool smoke = false;  ///< --smoke: tiny trial counts for CI smoke runs.
  /// --trace-dir DIR: benches that support it write trace artifacts
  /// (Tracer CSV, timeline JSONL) into this directory for wgtt-trace.
  std::string trace_dir;
  /// --profile: benches that support it run with the event profiler on.
  bool profile = false;
};

/// Extracts --jobs/--smoke/--trace-dir/--profile from argv (removing them,
/// adjusting *argc) and returns what was found. Call before
/// benchx::finish().
BenchOptions parse_bench_options(int* argc, char** argv);

/// Mean over `seeds` runs of the in-array throughput. Seeds chain
/// deterministically from config.seed; `jobs` only changes wall-clock
/// time, never the result (trials are summed in seed order).
double mean_mbps_over_seeds(DriveConfig config, int seeds, int jobs);
double mean_mbps_over_seeds(DriveConfig config, int seeds);

}  // namespace wgtt::benchx
