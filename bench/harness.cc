#include "bench/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "mobility/trajectory.h"
#include "phy/mcs.h"
#include "trace/postmortem.h"
#include "trace/timeline.h"
#include "trace/tracer.h"
#include "transport/tcp.h"
#include "transport/udp.h"

namespace wgtt::benchx {

namespace {

/// Builds the mobility pattern; index 0 is the "primary" client.
std::vector<std::unique_ptr<mobility::Trajectory>> make_trajectories(
    const DriveConfig& cfg, double road_span, double ap_spacing) {
  std::vector<std::unique_ptr<mobility::Trajectory>> out;
  const double v = mph_to_mps(cfg.mph);
  const double start = -cfg.lead_in_m;
  if (cfg.mph == 0.0) {
    // Parked clients sit at AP boresights (good coverage, as a parked user
    // would choose), starting from the middle of the array.
    const double mid_ap =
        std::round(road_span / 2.0 / ap_spacing) * ap_spacing;
    for (int i = 0; i < cfg.num_clients; ++i) {
      out.push_back(std::make_unique<mobility::StaticPosition>(
          channel::Vec2{mid_ap + i * ap_spacing, 0.0}));
    }
    return out;
  }
  switch (cfg.pattern) {
    case Pattern::kSingle:
      for (int i = 0; i < cfg.num_clients; ++i) {
        // Convoy with 10 m spacing when more than one client is requested.
        out.push_back(std::make_unique<mobility::LineDrive>(start - 10.0 * i,
                                                            0.0, v));
      }
      break;
    case Pattern::kFollowing:
      // Paper Figure 19 (a): same lane, 3 m spacing.
      out.push_back(std::make_unique<mobility::LineDrive>(start, 0.0, v));
      out.push_back(std::make_unique<mobility::LineDrive>(start - 3.0, 0.0, v));
      break;
    case Pattern::kParallel:
      // (b): adjacent lanes, abreast.
      out.push_back(std::make_unique<mobility::LineDrive>(start, 0.0, v));
      out.push_back(std::make_unique<mobility::LineDrive>(start, -3.5, v));
      break;
    case Pattern::kOpposing:
      // (c): opposite directions, opposite lanes.
      out.push_back(std::make_unique<mobility::LineDrive>(start, 0.0, v));
      out.push_back(std::make_unique<mobility::LineDrive>(
          road_span + cfg.lead_in_m, -3.5, -v));
      break;
    case Pattern::kDistributed: {
      // Starts spread evenly over the part of the array every client can
      // traverse within the horizon: constant client density throughout.
      const double usable = std::max(0.0, road_span - cfg.drive_span_m);
      for (int i = 0; i < cfg.num_clients; ++i) {
        const double frac =
            cfg.num_clients > 1
                ? static_cast<double>(i) / (cfg.num_clients - 1)
                : 0.0;
        out.push_back(
            std::make_unique<mobility::LineDrive>(usable * frac, 0.0, v));
      }
      break;
    }
  }
  return out;
}

/// Measurement window for a client: while it is between the first and last
/// AP (by |x| position), or the whole run for a parked client.
std::pair<Time, Time> measure_window(const mobility::Trajectory& tr,
                                     double last_ap_x, Time horizon) {
  const auto* drive = dynamic_cast<const mobility::LineDrive*>(&tr);
  if (drive == nullptr) return {Time::zero(), horizon};
  const Time a = drive->time_at_x(0.0);
  const Time b = drive->time_at_x(last_ap_x);
  return {std::min(a, b), std::max(a, b)};
}

struct Flow {
  // Exactly one of these is active per client, by workload.
  std::unique_ptr<transport::UdpSource> udp_src;
  transport::UdpSink udp_sink;
  std::unique_ptr<transport::TcpSender> tcp_tx;
  std::unique_ptr<transport::TcpReceiver> tcp_rx;
  bool tcp_alive = true;
  double tcp_death_s = -1.0;
};

}  // namespace

DriveResult run_drive(const DriveConfig& cfg) {
  net::reset_packet_uids();
  DriveResult result;

  // --- geometry & horizon ---------------------------------------------------
  scenario::GeometryConfig geo = cfg.geometry.value_or(scenario::GeometryConfig{});
  geo.seed = cfg.seed;
  const double last_ap_x = (geo.num_aps - 1) * geo.ap_spacing_m;
  const double span = cfg.pattern == Pattern::kDistributed
                          ? cfg.drive_span_m
                          : cfg.lead_in_m + last_ap_x + cfg.lead_in_m;
  const Time horizon = cfg.mph > 0.0
                           ? Time::seconds(span / mph_to_mps(cfg.mph))
                           : Time::sec(10);
  result.duration_s = horizon.to_seconds();

  auto trajectories = make_trajectories(cfg, last_ap_x, geo.ap_spacing_m);
  const int n = static_cast<int>(trajectories.size());

  // --- system construction ----------------------------------------------------
  std::unique_ptr<scenario::WgttSystem> wgtt;
  std::unique_ptr<scenario::BaselineSystem> base;
  sim::Scheduler* sched = nullptr;

  if (cfg.system == System::kWgtt) {
    scenario::WgttSystemConfig scfg;
    scfg.geometry = geo;
    if (cfg.selection_window) scfg.controller.selection_window = *cfg.selection_window;
    if (cfg.hysteresis) scfg.controller.switch_hysteresis = *cfg.hysteresis;
    scfg.controller.metric = cfg.metric;
    if (cfg.ack_timeout) scfg.controller.ack_timeout = *cfg.ack_timeout;
    if (cfg.heartbeat_interval) {
      scfg.controller.heartbeat_interval = *cfg.heartbeat_interval;
    }
    if (cfg.heartbeat_miss_threshold) {
      scfg.controller.heartbeat_miss_threshold = *cfg.heartbeat_miss_threshold;
    }
    scfg.ap_faults = cfg.ap_faults;
    scfg.ap.start_from_newest = cfg.start_from_newest;
    scfg.controller.bounded_fallback = cfg.bounded_fallback;
    scfg.channel_reuse = cfg.channel_reuse;
    if (cfg.backhaul_link_rate_mbps) {
      scfg.backhaul.link_rate_mbps = *cfg.backhaul_link_rate_mbps;
    }
    if (cfg.backhaul_queue_bytes) {
      scfg.backhaul.link_queue_bytes = *cfg.backhaul_queue_bytes;
    }
    scfg.backhaul.batching = cfg.backhaul_batching;
    if (cfg.backhaul_batch_window) {
      scfg.backhaul.batch_window = *cfg.backhaul_batch_window;
    }
    if (cfg.control_loss_rate > 0.0) {
      for (const auto kind : {net::MsgKind::kStop, net::MsgKind::kStart,
                              net::MsgKind::kSwitchAck}) {
        scfg.backhaul.fault(kind).loss_rate = cfg.control_loss_rate;
      }
    }
    scfg.num_domains = cfg.num_domains;
    if (cfg.num_domains > 1) scfg.controller_faults = cfg.controller_faults;
    wgtt = std::make_unique<scenario::WgttSystem>(scfg);
    sched = &wgtt->sched();
  } else {
    scenario::BaselineSystemConfig scfg;
    scfg.geometry = geo;
    if (cfg.baseline_persistence) {
      scfg.client.below_threshold_persistence = *cfg.baseline_persistence;
      scfg.client.beacon_staleness =
          std::max(*cfg.baseline_persistence, Time::ms(600));
    }
    base = std::make_unique<scenario::BaselineSystem>(scfg);
    sched = &base->sched();
  }

  for (int i = 0; i < n; ++i) {
    if (wgtt) {
      wgtt->add_client(trajectories[static_cast<std::size_t>(i)].get());
    } else {
      base->add_client(trajectories[static_cast<std::size_t>(i)].get());
    }
  }
  if (wgtt) {
    wgtt->start();
    if (!cfg.ba_forwarding) {
      for (int i = 0; i < wgtt->num_aps(); ++i) wgtt->ap(i).set_ba_forwarding(false);
    }
  } else {
    base->start();
  }

  // --- metrics ----------------------------------------------------------------
  const bool want_metrics =
      (cfg.collect_metrics || cfg.profile || !cfg.metrics_path.empty()) &&
      wgtt != nullptr;
  if (want_metrics) {
    result.metrics = std::make_shared<obs::MetricsRegistry>();
    wgtt->enable_metrics(*result.metrics, cfg.metrics_interval);
    // Pre-register the tcp.* keys so every snapshot carries them, TCP
    // workload or not.
    transport::TcpSender::register_metrics(*result.metrics);
  }

  // --- instrumentation ---------------------------------------------------------
  result.clients.resize(static_cast<std::size_t>(n));

  // Association timelines (every controller: with domains, whichever owns
  // the client at the time reports its switches).
  if (wgtt) {
    for (int d = 0; d < wgtt->num_domains(); ++d) {
      wgtt->controller(d).on_serving_changed =
          [&](net::ClientId c, net::ApId ap, Time t) {
            result.clients[net::index_of(c)].assoc_timeline.emplace_back(
                t.to_seconds(), static_cast<int>(net::index_of(ap)));
          };
    }
  } else {
    base->router().on_association = [&](net::ClientId c, net::ApId ap, Time t) {
      result.clients[net::index_of(c)].assoc_timeline.emplace_back(
          t.to_seconds(), static_cast<int>(net::index_of(ap)));
    };
  }

  // Bitrate samples: the PHY rate of every downlink data frame the client
  // actually decoded (Figure 16 plots the link bit rate observed in the
  // client's tcpdump — i.e. of received frames, not of attempts).
  for (int i = 0; i < n; ++i) {
    mac::WifiMac& m = wgtt ? wgtt->client(i).mac() : base->client(i).mac();
    // Chain with any existing handler (the baseline client tracks beacon
    // RSSI through on_heard — clobbering it would break association).
    m.on_heard = [&result, prev = std::move(m.on_heard)](
                     const mac::Frame& f, bool decoded,
                     const channel::CsiMeasurement& csi) {
      if (prev) prev(f, decoded, csi);
      if (const auto* df = std::get_if<mac::DataFrame>(&f.body)) {
        result.bitrate_mbps_samples.push_back(
            phy::mcs_info(df->mcs).data_rate_mbps);
      }
    };
  }


  // --- traffic ------------------------------------------------------------------
  std::vector<Flow> flows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Flow& f = flows[static_cast<std::size_t>(i)];
    const net::ClientId cid{static_cast<std::uint32_t>(i)};
    auto server_send = [&, i](net::Packet p) {
      p.client = net::ClientId{static_cast<std::uint32_t>(i)};
      if (wgtt) {
        wgtt->server_send(std::move(p));
      } else {
        base->server_send(std::move(p));
      }
    };
    auto client_send = [&, i](net::Packet p) {
      if (wgtt) {
        wgtt->client(i).send_uplink(std::move(p));
      } else {
        base->client(i).send_uplink(std::move(p));
      }
    };

    switch (cfg.workload) {
      case Workload::kUdpDown: {
        f.udp_src = std::make_unique<transport::UdpSource>(
            *sched, server_send,
            transport::UdpSource::Config{.rate_mbps = cfg.udp_rate_mbps,
                                         .client = cid});
        auto on_down = [&f, sched](const net::Packet& p) {
          f.udp_sink.on_packet(sched->now(), p);
        };
        if (wgtt) {
          wgtt->client(i).on_downlink = on_down;
        } else {
          base->client(i).on_downlink = on_down;
        }
        f.udp_src->start();
        break;
      }
      case Workload::kUdpUp: {
        f.udp_src = std::make_unique<transport::UdpSource>(
            *sched, client_send,
            transport::UdpSource::Config{.rate_mbps = cfg.udp_rate_mbps,
                                         .client = cid,
                                         .downlink = false});
        f.udp_src->start();
        break;
      }
      case Workload::kTcpDown: {
        transport::TcpSender::Config scfg;
        scfg.client = cid;
        f.tcp_tx = std::make_unique<transport::TcpSender>(*sched, server_send,
                                                          scfg);
        if (result.metrics) f.tcp_tx->set_metrics(result.metrics.get());
        transport::TcpReceiver::Config rcfg;
        rcfg.client = cid;
        f.tcp_rx = std::make_unique<transport::TcpReceiver>(*sched, client_send,
                                                            rcfg);
        auto on_down = [&f](const net::Packet& p) { f.tcp_rx->on_data_packet(p); };
        if (wgtt) {
          wgtt->client(i).on_downlink = on_down;
        } else {
          base->client(i).on_downlink = on_down;
        }
        f.tcp_tx->on_dead = [&f, sched] {
          f.tcp_alive = false;
          f.tcp_death_s = sched->now().to_seconds();
        };
        f.tcp_tx->set_unlimited(true);
        break;
      }
    }
  }

  // Uplink demultiplexing at the server side.
  auto server_uplink = [&](const net::Packet& p) {
    const auto i = static_cast<std::size_t>(net::index_of(p.client));
    if (i >= flows.size()) return;
    Flow& f = flows[i];
    switch (cfg.workload) {
      case Workload::kUdpUp:
        f.udp_sink.on_packet(sched->now(), p);
        break;
      case Workload::kTcpDown:
        if (f.tcp_tx) f.tcp_tx->on_ack_packet(p);
        break;
      case Workload::kUdpDown:
        break;  // no meaningful uplink
    }
  };
  if (wgtt) {
    wgtt->on_server_uplink = server_uplink;
  } else {
    base->on_server_uplink = server_uplink;
  }

  // --- accuracy probe -------------------------------------------------------------
  std::vector<int> probe_match(static_cast<std::size_t>(n), 0);
  std::vector<int> probe_total(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < n; ++i) {
    if (cfg.pattern == Pattern::kDistributed) {
      // Every distributed client is in-array for the whole run; skip the
      // bootstrap transient, then measure to the horizon.
      windows.emplace_back(std::min(Time::ms(500), horizon), horizon);
    } else {
      windows.push_back(measure_window(
          *trajectories[static_cast<std::size_t>(i)], last_ap_x, horizon));
    }
  }
  std::function<void()> probe = [&] {
    for (int i = 0; i < n; ++i) {
      const auto [t0, t1] = windows[static_cast<std::size_t>(i)];
      const Time now = sched->now();
      if (now < t0 || now >= t1) continue;
      const int serving = wgtt ? wgtt->serving_ap(i) : base->serving_ap(i);
      // WgttSystem::optimal_ap bounds the ground-truth argmax to the
      // sense-range neighborhood (identical answer whenever the whole array
      // is in range, as in the testbed).
      const int optimal = wgtt ? wgtt->optimal_ap(i, now)
                               : base->geometry().optimal_ap(i, now);
      ++probe_total[static_cast<std::size_t>(i)];
      if (serving == optimal) ++probe_match[static_cast<std::size_t>(i)];
    }
    sched->schedule_in(cfg.accuracy_probe, probe, sim::EventCategory::kChannel);
  };
  sched->schedule_in(cfg.accuracy_probe, probe, sim::EventCategory::kChannel);

  // --- observability ----------------------------------------------------------------
  // Attached after every other hook consumer so the tracer/timeline chain
  // last (the trace::attach contract). The tracer also backs the post-mortem
  // bundle's flight-recorder tail, so a postmortem directory alone attaches
  // one — pure observation either way, byte-identity is unaffected.
  std::string postmortem_dir = cfg.postmortem_dir;
  if (postmortem_dir.empty()) {
    if (const char* env = std::getenv("WGTT_DUMP_ON_VIOLATION");
        env != nullptr && *env != '\0') {
      postmortem_dir = env;
    }
  }
  std::unique_ptr<trace::Tracer> tracer;
  if (wgtt && (!cfg.trace_csv_path.empty() || !postmortem_dir.empty())) {
    tracer = std::make_unique<trace::Tracer>();
    trace::attach(*tracer, *wgtt);
  }
  std::unique_ptr<trace::TimelineRecorder> timeline;
  if (wgtt && !cfg.timeline_path.empty()) {
    timeline = std::make_unique<trace::TimelineRecorder>(
        *wgtt, trace::TimelineRecorder::Config{.tick = cfg.timeline_tick});
    if (cfg.workload == Workload::kTcpDown) {
      timeline->set_transport_probe(
          [&flows](int i)
              -> std::optional<trace::TimelineRecorder::TransportSample> {
            if (i < 0 || static_cast<std::size_t>(i) >= flows.size()) {
              return std::nullopt;
            }
            const auto& tx = flows[static_cast<std::size_t>(i)].tcp_tx;
            if (!tx) return std::nullopt;
            return trace::TimelineRecorder::TransportSample{
                tx->cwnd_segments(), tx->stats().last_srtt_ms};
          });
    }
    timeline->start();
  }
  // Constructed only when asked for: the first profiler in a process
  // calibrates the tick scale (a ~2 ms spin).
  std::optional<sim::EventProfiler> profiler;
  if (cfg.profile && wgtt) sched->set_profiler(&profiler.emplace());

  // --- run --------------------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  if (wgtt) {
    wgtt->run_until(horizon);
  } else {
    base->run_until(horizon);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (profiler) sched->set_profiler(nullptr);

  // --- collect ------------------------------------------------------------------------
  scenario::InvariantReport invariants;
  for (int i = 0; i < n; ++i) {
    ClientResult& cr = result.clients[static_cast<std::size_t>(i)];
    Flow& f = flows[static_cast<std::size_t>(i)];
    const auto [t0, t1] = windows[static_cast<std::size_t>(i)];
    result.in_array_s = (t1 - t0).to_seconds();
    const transport::ThroughputRecorder* rec = nullptr;
    if (cfg.workload == Workload::kTcpDown) {
      rec = &f.tcp_rx->goodput();
      cr.tcp_alive = f.tcp_alive;
      cr.tcp_death_s = f.tcp_death_s;
    } else {
      rec = &f.udp_sink.throughput();
    }
    cr.mbps = rec->average_mbps(t0, t1);
    cr.bytes = rec->total_bytes();
    cr.series = rec->series();
    if (probe_total[static_cast<std::size_t>(i)] > 0) {
      cr.accuracy = static_cast<double>(probe_match[static_cast<std::size_t>(i)]) /
                    probe_total[static_cast<std::size_t>(i)];
    }
    if (cfg.workload == Workload::kUdpUp) {
      // Loss per 500 ms window against the offered rate, within the
      // in-array span. (Sequence-gap accounting alone under-reports total
      // outages: an empty window has no gaps.)
      for (Time w = t0; w + Time::ms(500) <= t1; w += Time::ms(500)) {
        const double got = rec->average_mbps(w, w + Time::ms(500));
        cr.uplink_loss_windows.push_back(
            std::clamp(1.0 - got / cfg.udp_rate_mbps, 0.0, 1.0));
      }
    }
  }

  if (wgtt) {
    for (int d = 0; d < wgtt->num_domains(); ++d) {
      const auto& st = wgtt->controller(d).stats();
      result.switches += st.switches_completed;
      for (const auto& sw : wgtt->controller(d).switch_log()) {
        result.switch_protocol_ms.push_back(
            (sw.completed - sw.initiated).to_millis());
      }
      result.uplink_dups_dropped += st.uplink_duplicates_dropped;
      result.uplink_packets += st.uplink_packets;
      result.stop_retransmissions += st.stop_retransmissions;
      result.stale_acks_ignored += st.stale_acks_ignored;
      result.aps_marked_dead += st.aps_marked_dead;
      result.aps_readmitted += st.aps_readmitted;
      result.forced_failovers += st.forced_failovers;
      result.failovers_unserved += st.failovers_unserved;
      result.fanout_empty_drops += st.fanout_empty_drops;
      result.handovers_completed += st.handovers_out;
      result.handover_retries += st.handover_retries;
      result.handover_aborts += st.handover_aborts;
      result.penalty_blocked += st.penalty_blocked;
      result.controllers_marked_dead += st.peers_marked_dead;
      result.clients_adopted += st.clients_adopted;
      result.ownership_yields += st.ownership_yields;
    }
    for (int i = 0; i < n; ++i) {
      result.downlink_dups_dropped +=
          wgtt->client(i).downlink_duplicates_dropped();
    }
    invariants = wgtt->check_invariants();
    result.invariant_violations = invariants.violations.size();
    for (int i = 0; i < wgtt->num_aps(); ++i) {
      const auto& aps = wgtt->ap(i).stats();
      result.idempotent_replies += aps.stop_duplicates + aps.start_duplicates +
                                   aps.stale_control_ignored;
    }
    for (int i = 0; i < wgtt->num_aps(); ++i) {
      const auto s = wgtt->ap(i).mac().total_stats();
      result.retransmissions += s.retransmissions;
      result.mpdus_delivered += s.mpdus_delivered;
      result.delivered_via_forwarded_ba += s.mpdus_delivered_via_forwarded_ba;
      result.stale_dropped += wgtt->ap(i).stats().stale_dropped;
    }
    for (int i = 0; i < n; ++i) {
      result.ba_heard += wgtt->client(i).mac().ba_frames_heard();
      result.ba_collided += wgtt->client(i).mac().ba_frames_collided();
    }
  } else {
    for (int i = 0; i < n; ++i) {
      result.switches += base->client(i).stats().handovers_completed;
    }
    for (int i = 0; i < base->num_aps(); ++i) {
      const auto s = base->ap(i).mac().total_stats();
      result.retransmissions += s.retransmissions;
      result.mpdus_delivered += s.mpdus_delivered;
    }
    for (int i = 0; i < n; ++i) {
      result.ba_heard += base->client(i).mac().ba_frames_heard();
      result.ba_collided += base->client(i).mac().ba_frames_collided();
    }
  }

  if (cfg.record_perf) {
    // Wall-clock gauge, opt-in only: see the DriveConfig field comment.
    if (!result.metrics) result.metrics = std::make_shared<obs::MetricsRegistry>();
    result.metrics->gauge("sim.events_per_sec")
        .set(wall_s > 0.0
                 ? static_cast<double>(sched->events_executed()) / wall_s
                 : 0.0);
  }

  if (profiler) {
    // Wall-clock breakdown, opt-in only (record_perf rule).
    if (!result.metrics) result.metrics = std::make_shared<obs::MetricsRegistry>();
    profiler->flush_to(*result.metrics);
    result.metrics->gauge("sim.profile.wall_coverage")
        .set(wall_s > 0.0
                 ? static_cast<double>(profiler->total_ns()) / 1e9 / wall_s
                 : 0.0);
  }

  if (timeline) {
    timeline->stop();
    std::ofstream out(cfg.timeline_path);
    if (out) timeline->write_jsonl(out);
  }
  if (tracer && !cfg.trace_csv_path.empty()) {
    std::ofstream out(cfg.trace_csv_path);
    if (out) tracer->write_csv(out);
    if (result.metrics && !cfg.metrics_path.empty()) {
      result.metrics->gauge("trace.events_dropped")
          .set(static_cast<double>(tracer->dropped()));
    }
  }
  if (wgtt && !postmortem_dir.empty() && !invariants.ok()) {
    trace::write_postmortem(postmortem_dir, *wgtt, invariants, tracer.get(),
                            result.metrics.get());
  }

  if (result.metrics && !cfg.metrics_path.empty()) {
    std::ofstream out(cfg.metrics_path);
    if (out) result.metrics->write_json(out);
  }
  return result;
}

std::size_t TrialPool::submit(DriveConfig config) {
  if (!config.metrics_path.empty()) {
    // A shared per-trial path would have each trial clobber the previous
    // one's snapshot; redirect it into the pool's single merged write.
    if (opts_.metrics_path.empty()) opts_.metrics_path = config.metrics_path;
    config.collect_metrics = true;
    config.metrics_path.clear();
  }
  trials_.push_back(std::move(config));
  return trials_.size() - 1;
}

int TrialPool::jobs() const {
  if (opts_.jobs > 0) return opts_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<DriveResult> TrialPool::run() {
  const std::size_t count = trials_.size();
  std::vector<DriveResult> results(count);
  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(jobs()), std::max<std::size_t>(count, 1)));

  const auto start = std::chrono::steady_clock::now();
  std::exception_ptr error;
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        results[i] = run_drive(trials_[i]);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) return;
          try {
            results[i] = run_drive(trials_[i]);
          } catch (...) {
            std::scoped_lock lock(err_mu);
            if (!error) error = std::current_exception();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  trials_per_sec_ =
      wall_s > 0.0 ? static_cast<double>(count) / wall_s : 0.0;

  // Merge in submission order — byte-identical output for any job count.
  merged_.reset();
  for (const auto& r : results) {
    if (!r.metrics) continue;
    if (!merged_) merged_ = std::make_shared<obs::MetricsRegistry>();
    merged_->merge_from(*r.metrics);
  }
  if (opts_.record_throughput) {
    if (!merged_) merged_ = std::make_shared<obs::MetricsRegistry>();
    merged_->gauge("harness.trials_per_sec").set(trials_per_sec_);
  }
  if (merged_ && !opts_.metrics_path.empty()) {
    std::ofstream out(opts_.metrics_path);
    if (out) merged_->write_json(out);
  }

  trials_.clear();
  if (error) std::rethrow_exception(error);
  return results;
}

BenchOptions parse_bench_options(int* argc, char** argv) {
  BenchOptions opts;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--jobs" && i + 1 < *argc) {
      opts.jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opts.jobs = std::atoi(argv[i] + 7);
    } else if (arg == "--trace-dir" && i + 1 < *argc) {
      opts.trace_dir = argv[++i];
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      opts.trace_dir = arg.substr(12);
    } else {
      argv[out++] = argv[i];
    }
  }
  argv[out] = nullptr;
  *argc = out;
  // Trace artifacts are written with plain ofstream, which cannot create
  // directories — make the export directory here so a bare
  // `--trace-dir /tmp/tr` works without a prior mkdir.
  if (!opts.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --trace-dir '%s': %s\n",
                   opts.trace_dir.c_str(), ec.message().c_str());
      std::exit(1);
    }
  }
  return opts;
}

double mean_mbps_over_seeds(DriveConfig config, int seeds, int jobs) {
  TrialPool pool(TrialPool::Options{.jobs = jobs});
  for (int s = 0; s < seeds; ++s) {
    config.seed = config.seed * 7919 + 13;  // unchanged pre-TrialPool chain
    pool.submit(config);
  }
  const auto results = pool.run();
  double total = 0.0;
  for (const auto& r : results) total += r.mean_mbps();
  return total / seeds;
}

double mean_mbps_over_seeds(DriveConfig config, int seeds) {
  return mean_mbps_over_seeds(std::move(config), seeds, 1);
}

}  // namespace wgtt::benchx
