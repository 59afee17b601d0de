// City-scale scenario wired for the parallel engine (DESIGN.md §11).
//
// The city is a set of RF-isolated corridor deployments (distinct streets:
// each has its own AP array, controller shard, backhaul and clients, and
// the streets are farther apart than twice the carrier-sense range, so no
// MAC-layer interaction between them is physically possible) plus one
// traffic hub modelling the server side: per-client UDP sources and sinks
// behind the operator's wire. Domain 0 is the hub; domain 1+c is corridor
// c. The only cross-domain interaction is the server wire — downlink
// packets hub -> corridor controller, de-duplicated uplink packets
// corridor -> hub — which has a fixed minimum latency, and that latency is
// exactly the ParallelEngine lookahead.
//
// The corridor partition is derived from the global road map through
// core::SpatialIndex::segment_of: corridors are laid out along one global
// road axis with one index cell per corridor pitch, every AP's global
// coordinate maps to its corridor's segment, and each client is assigned
// to the domain segment_of(its start position) returns. The builder
// asserts the mapping is consistent, so the domain graph provably follows
// the road-segment structure rather than an ad-hoc list.
//
// `workers` is a wall-clock knob only: the domain graph is fixed by
// (corridors, geometry), and runs are byte-identical for every worker
// count — tests/parallel_test.cc sweeps 20 seeds x {1, 2, 4} workers and
// compares whole wgtt.metrics.v1 snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "util/units.h"

namespace wgtt::scenario {

struct ParallelCityConfig {
  /// Corridor (domain) count — fixed by the scenario, NOT by --parallel-
  /// domains. Changing it changes the city; changing `workers` never
  /// changes anything but wall-clock time.
  int corridors = 4;
  int aps_per_corridor = 8;
  int clients_per_corridor = 2;
  double mph = 15.0;
  double udp_rate_mbps = 4.0;
  std::uint64_t seed = 1;
  /// Per-client drive distance; also derives the horizon (span / speed).
  double drive_span_m = 45.0;
  /// Street-to-street spacing beyond the corridor's own extent. Must stay
  /// well above twice the carrier-sense range (120 m) so corridors are
  /// RF-isolated — the builder enforces it.
  double corridor_gap_m = 400.0;
  /// One-way hub <-> corridor wire latency = the engine lookahead.
  Time wire_latency = Time::ms(1);
  /// false: downlink UDP CBR per client (hub -> corridors). true: uplink
  /// CBR (corridor clients -> hub sinks) — the direction that exercises
  /// the corridor -> hub edges with data traffic.
  bool uplink = false;
  /// Controller domains per corridor (DESIGN.md §12). 1 (the default)
  /// keeps the legacy single controller per corridor; N > 1 splits each
  /// corridor's AP stretch into N ControllerDomains with inter-domain
  /// handover — the §12 layer running *inside* a §11 engine domain, which
  /// is how the two "domain" notions compose: engine domains partition
  /// the event space, controller domains partition ownership.
  int domains_per_corridor = 1;
  /// Worker threads for the engine (clamped to 1 + corridors).
  int workers = 1;
  /// Horizon override; zero derives drive_span_m / speed.
  Time horizon = Time::zero();

  /// Collect a merged wgtt.metrics.v1 snapshot (per-corridor registries
  /// folded in ascending domain order, plus the deterministic parallel.*
  /// counters).
  bool collect_metrics = false;
  /// Wall-clock gauges (events/sec, threads used) — off by default, the
  /// record_perf rule: they differ run to run, so they never enter a
  /// snapshot that byte-identity tests compare.
  bool record_perf = false;
  /// Attach one sim::EventProfiler per domain and flush the merged
  /// per-category breakdown (plus sim.profile.threads_used) — wall-clock,
  /// same rule as record_perf.
  bool profile = false;
};

struct ParallelCityResult {
  /// In-array goodput per client, corridor-major order.
  std::vector<double> client_mbps;
  double mean_mbps = 0.0;
  std::uint64_t switches = 0;
  std::size_t invariant_violations = 0;
  std::uint64_t lookahead_violations = 0;
  std::uint64_t events_executed = 0;   // all domains
  std::uint64_t messages = 0;          // cross-domain deliveries
  std::uint64_t rounds = 0;
  int workers_used = 1;
  int domains = 0;
  double wall_s = 0.0;                 // engine run wall time
  double events_per_sec = 0.0;
  std::shared_ptr<obs::MetricsRegistry> metrics;  // when collect_metrics
};

/// Builds the city, runs it to the horizon on `config.workers` workers and
/// tears it down. Deterministic per config (including `workers`).
ParallelCityResult run_parallel_city(const ParallelCityConfig& config);

}  // namespace wgtt::scenario
