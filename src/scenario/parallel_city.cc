#include "scenario/parallel_city.h"

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spatial_index.h"
#include "mobility/trajectory.h"
#include "net/packet.h"
#include "scenario/wgtt_system.h"
#include "sim/parallel.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "transport/udp.h"

namespace wgtt::scenario {

namespace {

/// splitmix64 finaliser over (seed, salt): corridors get decorrelated
/// geometry/fading draws from one scenario seed, and the mapping is a pure
/// function of (seed, corridor) — independent of build order or workers.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Scoped uid-stream redirect for the single-threaded build phase: every
/// packet drawn while constructing a domain's objects comes from that
/// domain's counter, so construction and execution share one namespace.
class StreamScope {
 public:
  explicit StreamScope(std::uint64_t* stream)
      : prev_(net::set_packet_uid_stream(stream)) {}
  ~StreamScope() { net::set_packet_uid_stream(prev_); }
  StreamScope(const StreamScope&) = delete;
  StreamScope& operator=(const StreamScope&) = delete;

 private:
  std::uint64_t* prev_;
};

struct Corridor {
  // Trajectories and the registry are declared before the system so they
  // outlive it (clients hold raw pointers into the trajectories, and the
  // system's components fold their counters into the registry on teardown).
  std::vector<std::unique_ptr<mobility::Trajectory>> trajectories;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<WgttSystem> sys;
  std::vector<transport::UdpSink> down_sinks;  // client-side (downlink mode)
  std::vector<std::unique_ptr<transport::UdpSource>> up_srcs;  // uplink mode
};

}  // namespace

ParallelCityResult run_parallel_city(const ParallelCityConfig& config) {
  if (config.corridors < 1 || config.aps_per_corridor < 1 ||
      config.clients_per_corridor < 1) {
    throw std::invalid_argument("parallel_city: counts must be >= 1");
  }
  // RF isolation bound: carrier-sense range is ~120 m, so beyond 2x that no
  // corridor can sense (let alone decode) another's transmissions. The
  // domain decomposition is only exact because of this gap.
  if (config.corridor_gap_m < 250.0) {
    throw std::invalid_argument(
        "parallel_city: corridor_gap_m must be >= 250 m (2x carrier-sense "
        "range) for the corridors to be RF-isolated domains");
  }
  const double v = mph_to_mps(config.mph);
  if (v <= 0.0) throw std::invalid_argument("parallel_city: mph must be > 0");

  net::reset_packet_uids();
  ParallelCityResult result;

  const int C = config.corridors;
  const int ncli = config.clients_per_corridor;
  const Time horizon = config.horizon > Time::zero()
                           ? config.horizon
                           : Time::seconds(config.drive_span_m / v);

  // --- global road map -> domain partition ---------------------------------
  // Corridors live on one global road axis at a fixed pitch; one spatial
  // cell per pitch makes segment_of(global x) the domain id. The scenario
  // derives every client/AP -> domain assignment through this index (and
  // verifies it), so the partition provably follows the road-segment
  // structure rather than an ad-hoc list.
  const double spacing = GeometryConfig{}.ap_spacing_m;
  const double extent = (config.aps_per_corridor - 1) * spacing;
  const double pitch = extent + config.corridor_gap_m;
  std::vector<double> global_ap_x;
  global_ap_x.reserve(static_cast<std::size_t>(C) *
                      static_cast<std::size_t>(config.aps_per_corridor));
  for (int c = 0; c < C; ++c) {
    for (int a = 0; a < config.aps_per_corridor; ++a) {
      global_ap_x.push_back(c * pitch + a * spacing);
    }
  }
  core::SpatialIndex road;
  road.build(std::move(global_ap_x), pitch);
  for (int c = 0; c < C; ++c) {
    for (int a = 0; a < config.aps_per_corridor; ++a) {
      if (road.segment_of_ap(c * config.aps_per_corridor + a) != c) {
        throw std::logic_error("parallel_city: AP/segment partition mismatch");
      }
    }
  }

  // --- engine, domains, uid streams ----------------------------------------
  sim::ParallelEngine::Config ecfg;
  ecfg.lookahead = config.wire_latency;
  ecfg.workers = config.workers;
  sim::ParallelEngine engine(ecfg);

  // One uid counter per domain (hub = 0, corridor c = 1 + c), swapped in
  // around every execution window so uid draws never depend on which worker
  // runs a domain (DESIGN.md §11.5). The vector is sized once; element
  // addresses stay stable for the lambdas below.
  std::vector<std::uint64_t> uid(static_cast<std::size_t>(C) + 1);
  for (std::size_t d = 0; d < uid.size(); ++d) {
    uid[d] = net::packet_uid_domain_base(d);
  }
  auto enter_hook = [&uid](int d) {
    return [&uid, d] { net::set_packet_uid_stream(&uid[static_cast<std::size_t>(d)]); };
  };
  auto exit_hook = [] { net::set_packet_uid_stream(nullptr); };

  sim::Scheduler hub_sched;
  const int hub = engine.add_domain(&hub_sched, enter_hook(0), exit_hook);

  std::vector<Corridor> corridors(static_cast<std::size_t>(C));
  std::vector<int> down_edge(static_cast<std::size_t>(C));
  std::vector<int> up_edge(static_cast<std::size_t>(C));
  for (int c = 0; c < C; ++c) {
    Corridor& corr = corridors[static_cast<std::size_t>(c)];
    StreamScope scope(&uid[static_cast<std::size_t>(c) + 1]);

    WgttSystemConfig scfg;
    scfg.geometry.num_aps = config.aps_per_corridor;
    scfg.geometry.seed = mix_seed(config.seed, static_cast<std::uint64_t>(c));
    scfg.geometry.lazy_links = true;
    scfg.controller.bounded_fallback = true;
    scfg.num_domains = config.domains_per_corridor;
    // The hub <-> corridor wire is modeled by the engine edge (it IS the
    // lookahead); the in-corridor server stub adds nothing on top.
    scfg.server_latency = Time::zero();
    corr.sys = std::make_unique<WgttSystem>(scfg);

    // Clients spread evenly over the span they can traverse by the horizon
    // (constant density, always in-array — the kDistributed pattern).
    const double usable = std::max(0.0, extent - config.drive_span_m);
    for (int i = 0; i < ncli; ++i) {
      const double frac = ncli > 1 ? static_cast<double>(i) / (ncli - 1) : 0.0;
      const double start_local = usable * frac;
      if (road.segment_of(c * pitch + start_local) != c) {
        throw std::logic_error(
            "parallel_city: client/segment partition mismatch");
      }
      corr.trajectories.push_back(
          std::make_unique<mobility::LineDrive>(start_local, 0.0, v));
      corr.sys->add_client(corr.trajectories.back().get());
    }
    corr.sys->start();
    if (config.collect_metrics) {
      corr.metrics = std::make_shared<obs::MetricsRegistry>();
      corr.sys->enable_metrics(*corr.metrics);
    }

    const int d = engine.add_domain(&corr.sys->sched(), enter_hook(1 + c),
                                    exit_hook);
    if (d != 1 + c) throw std::logic_error("parallel_city: domain id drift");
    down_edge[static_cast<std::size_t>(c)] = engine.connect(hub, d);
    up_edge[static_cast<std::size_t>(c)] = engine.connect(d, hub);
  }

  // --- traffic --------------------------------------------------------------
  std::vector<std::unique_ptr<transport::UdpSource>> hub_srcs;
  std::vector<transport::UdpSink> hub_sinks(
      static_cast<std::size_t>(C) * static_cast<std::size_t>(ncli));

  for (int c = 0; c < C; ++c) {
    Corridor& corr = corridors[static_cast<std::size_t>(c)];
    WgttSystem* sys = corr.sys.get();
    const int edge_up = up_edge[static_cast<std::size_t>(c)];
    const int base = c * ncli;

    // Uplink data (minus probes) crosses the corridor -> hub wire and is
    // demultiplexed to the hub-side sink for (corridor, client).
    sys->on_server_uplink = [&engine, &hub_sched, &hub_sinks, sys, edge_up,
                             base, ncli,
                             wire = config.wire_latency](const net::Packet& p) {
      engine.post(edge_up, sys->now() + wire,
                  [&hub_sched, &hub_sinks, base, ncli, p] {
                    const auto i =
                        static_cast<int>(net::index_of(p.client));
                    if (i < 0 || i >= ncli) return;
                    hub_sinks[static_cast<std::size_t>(base + i)].on_packet(
                        hub_sched.now(), p);
                  });
    };

    if (!config.uplink) {
      // Downlink CBR: hub-side source per client; packets cross the
      // hub -> corridor wire, then the corridor's controller fans them out.
      // The measurement sink is the client device itself.
      corr.down_sinks = std::vector<transport::UdpSink>(
          static_cast<std::size_t>(ncli));
      for (int i = 0; i < ncli; ++i) {
        transport::UdpSink& sink = corr.down_sinks[static_cast<std::size_t>(i)];
        sys->client(i).on_downlink = [sys, &sink](const net::Packet& p) {
          sink.on_packet(sys->now(), p);
        };
      }
      StreamScope scope(&uid[0]);
      for (int i = 0; i < ncli; ++i) {
        const net::ClientId cid{static_cast<std::uint32_t>(i)};
        auto send = [&engine, &hub_sched, sys, cid,
                     edge = down_edge[static_cast<std::size_t>(c)],
                     wire = config.wire_latency](net::Packet p) {
          p.client = cid;
          engine.post(edge, hub_sched.now() + wire,
                      [sys, p = std::move(p)]() mutable {
                        sys->server_send(std::move(p));
                      });
        };
        hub_srcs.push_back(std::make_unique<transport::UdpSource>(
            hub_sched, send,
            transport::UdpSource::Config{.rate_mbps = config.udp_rate_mbps,
                                         .client = cid}));
        hub_srcs.back()->start();
      }
    } else {
      // Uplink CBR: sources live on the client, in the corridor domain.
      StreamScope scope(&uid[static_cast<std::size_t>(c) + 1]);
      for (int i = 0; i < ncli; ++i) {
        const net::ClientId cid{static_cast<std::uint32_t>(i)};
        auto send = [sys, i](net::Packet p) {
          sys->client(i).send_uplink(std::move(p));
        };
        corr.up_srcs.push_back(std::make_unique<transport::UdpSource>(
            sys->sched(), send,
            transport::UdpSource::Config{.rate_mbps = config.udp_rate_mbps,
                                         .client = cid,
                                         .downlink = false}));
        corr.up_srcs.back()->start();
      }
    }
  }

  // --- profiling (wall-clock, opt-in) ---------------------------------------
  std::vector<sim::EventProfiler> profs;
  if (config.profile) {
    profs = std::vector<sim::EventProfiler>(static_cast<std::size_t>(C) + 1);
    hub_sched.set_profiler(&profs[0]);
    for (int c = 0; c < C; ++c) {
      corridors[static_cast<std::size_t>(c)].sys->sched().set_profiler(
          &profs[static_cast<std::size_t>(c) + 1]);
    }
  }

  // --- run ------------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (config.profile) {
    hub_sched.set_profiler(nullptr);
    for (int c = 0; c < C; ++c) {
      corridors[static_cast<std::size_t>(c)].sys->sched().set_profiler(nullptr);
    }
  }

  // --- collect --------------------------------------------------------------
  const Time t0 = std::min(Time::ms(500), horizon);
  double total_mbps = 0.0;
  for (int c = 0; c < C; ++c) {
    Corridor& corr = corridors[static_cast<std::size_t>(c)];
    for (int i = 0; i < ncli; ++i) {
      const transport::UdpSink& sink =
          config.uplink
              ? hub_sinks[static_cast<std::size_t>(c * ncli + i)]
              : corr.down_sinks[static_cast<std::size_t>(i)];
      const double mbps = sink.throughput().average_mbps(t0, horizon);
      result.client_mbps.push_back(mbps);
      total_mbps += mbps;
    }
    for (int d = 0; d < corr.sys->num_domains(); ++d) {
      result.switches += corr.sys->controller(d).stats().switches_completed;
    }
    result.invariant_violations +=
        corr.sys->check_invariants().violations.size();
  }
  result.mean_mbps =
      result.client_mbps.empty()
          ? 0.0
          : total_mbps / static_cast<double>(result.client_mbps.size());
  result.lookahead_violations = engine.lookahead_violations();
  result.rounds = engine.rounds();
  result.messages = engine.messages_delivered();
  result.workers_used = engine.workers_used();
  result.domains = engine.num_domains();
  for (int d = 0; d < engine.num_domains(); ++d) {
    result.events_executed += engine.domain_events(d);
  }
  result.wall_s = wall_s;
  result.events_per_sec =
      wall_s > 0.0 ? static_cast<double>(result.events_executed) / wall_s : 0.0;

  if (config.collect_metrics) {
    result.metrics = std::make_shared<obs::MetricsRegistry>();
    // Ascending domain order — the merge is independent of worker count.
    for (int c = 0; c < C; ++c) {
      result.metrics->merge_from(*corridors[static_cast<std::size_t>(c)].metrics);
    }
    obs::MetricsRegistry& m = *result.metrics;
    m.counter("parallel.rounds").inc(result.rounds);
    m.counter("parallel.messages").inc(result.messages);
    m.counter("parallel.lookahead_violations").inc(result.lookahead_violations);
    for (int d = 0; d < engine.num_domains(); ++d) {
      m.counter("parallel.domain" + std::to_string(d) + ".events")
          .inc(engine.domain_events(d));
    }
  }
  if (config.record_perf) {
    // Wall-clock (and worker-count-dependent) gauges, opt-in only: they must
    // never enter a snapshot the byte-identity sweep compares.
    if (!result.metrics) result.metrics = std::make_shared<obs::MetricsRegistry>();
    result.metrics->gauge("sim.events_per_sec").set(result.events_per_sec);
    result.metrics->gauge("sim.profile.threads_used")
        .set(static_cast<double>(result.workers_used));
  }
  if (config.profile) {
    if (!result.metrics) result.metrics = std::make_shared<obs::MetricsRegistry>();
    sim::EventProfiler total;
    for (const sim::EventProfiler& p : profs) total.merge_from(p);
    total.flush_to(*result.metrics);
    result.metrics->gauge("sim.profile.threads_used")
        .set(static_cast<double>(result.workers_used));
  }
  return result;
}

}  // namespace wgtt::scenario
