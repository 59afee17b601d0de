#include "scenario/wgtt_system.h"

#include <algorithm>

#include "phy/esnr.h"

namespace wgtt::scenario {
namespace {
/// Slack added to sense range when turning the medium's audibility rule
/// into an interest neighborhood: covers receiver motion during a frame's
/// flight (centimetres at transit speeds) with room to spare, so the
/// filtered candidate set is always a superset of the audible set.
constexpr double kReachMarginM = 5.0;
/// Road-segment (grid cell) width of the spatial index. APs are 7.5 m apart
/// in the testbed, so a segment holds ~4 APs. Segments serve only the
/// multi-domain partition: its cuts fall on segment boundaries.
constexpr double kSegmentM = 30.0;
/// Added to 2 * sense range to form the bounded fallback's neighbourhood
/// radius: any AP that could hold fresh CSI for a client anchored at AP a
/// heard the client within sense range, and the client moved < 50 m since
/// (DESIGN.md §9).
constexpr double kNeighborSlackM = 50.0;
}  // namespace

WgttSystem::WgttSystem(const WgttSystemConfig& config)
    : config_(config),
      rng_(config.geometry.seed ^ 0x5747745747ULL),
      medium_(sched_, config.medium),
      backhaul_(sched_, config.backhaul, Rng{config.geometry.seed ^ 0xbacc}),
      geometry_(config.geometry) {
  // Fault scripts imply liveness: detecting a scripted AP death requires
  // the heartbeat machinery. Scenarios may also enable it explicitly (to
  // study the heartbeat overhead with no faults); with neither, the
  // controller runs exactly as before — no heartbeats, no extra RNG draws.
  if (!config_.ap_faults.empty()) config_.controller.liveness_enabled = true;
  // The spatial index is built before the controllers so the domain split
  // can align its cuts to road-segment boundaries. Index construction draws
  // no RNG.
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(config_.geometry.num_aps));
  for (int i = 0; i < config_.geometry.num_aps; ++i) {
    xs.push_back(geometry_.ap_position(i).x);
  }
  spatial_index_.build(std::move(xs), kSegmentM);
  const int nd = std::clamp(config_.num_domains, 1,
                            std::max(1, config_.geometry.num_aps));
  if (nd > 1) domain_map_.build(spatial_index_, static_cast<std::uint32_t>(nd));
  // Single-copy fan-out: the controller acquires once, each target AP holds
  // a reference, and the backhaul drops/refs payloads along with the
  // messages it loses or duplicates.
  backhaul_.set_payload_pool(&payload_pool_);
  for (int d = 0; d < nd; ++d) {
    core::Controller::Config ccfg = config_.controller;
    ccfg.domains.id = static_cast<std::uint32_t>(d);
    ccfg.domains.num_domains = static_cast<std::uint32_t>(nd);
    auto ctrl = std::make_unique<core::Controller>(sched_, backhaul_,
                                                   payload_pool_, ccfg);
    if (nd > 1) ctrl->set_domain_map(&domain_map_);
    ctrl->set_spatial(&spatial_index_,
                      2.0 * config_.medium.sense_range_m + kNeighborSlackM);
    ctrl->on_ownership_changed = [this](net::ClientId c, std::uint32_t owner) {
      const std::size_t i = net::index_of(c);
      if (i < owner_of_.size()) owner_of_[i] = static_cast<int>(owner);
    };
    controllers_.push_back(std::move(ctrl));
  }
  for (int i = 0; i < config_.geometry.num_aps; ++i) {
    const net::ApId ap_id{static_cast<std::uint32_t>(i)};
    auto ap = std::make_unique<ap::WgttAp>(
        ap_id, sched_, medium_, backhaul_, payload_pool_, rng_.fork(),
        config_.ap, [this, i] { return geometry_.ap_position(i); });
    ap_idx_of_radio_[ap->mac().radio()] = i;
    ap->mac().set_channel_sampler(
        [this, i](mac::RadioId peer) {
          return geometry_.sample(ap_link(i, peer), sched_.now());
        },
        [this, i](mac::RadioId peer) {
          return geometry_.snr_ceiling_db(ap_link(i, peer), sched_.now());
        });
    ap->mac().set_interest_filter([this](mac::RadioId from) {
      return client_idx_of_radio_.contains(from);
    });
    ap->set_ap_directory([this](mac::RadioId r) -> std::optional<net::ApId> {
      auto it = ap_idx_of_radio_.find(r);
      if (it == ap_idx_of_radio_.end()) return std::nullopt;
      return net::ApId{static_cast<std::uint32_t>(it->second)};
    });
    const int home =
        nd > 1 ? static_cast<int>(domain_map_.domain_of_ap(ap_id)) : 0;
    ap->set_controller_node(
        net::NodeId::controller(static_cast<std::uint32_t>(home)));
    controllers_[static_cast<std::size_t>(home)]->add_ap(ap_id);
    aps_.push_back(std::move(ap));
  }
  ap_channel_before_crash_.assign(aps_.size(), mac::Medium::kNoChannel);
  // Medium interest filter: only radios that could possibly be within
  // sense range of the transmit origin get delivery events. AP radios are
  // 0..A-1 in AP-index order and client radios follow in add_client
  // order, so appending index-sorted APs then index-ordered clients
  // satisfies the medium's increasing-RadioId contract.
  medium_.set_reach_filter(
      [this](channel::Vec2 origin, std::vector<mac::RadioId>& out) {
        const double reach = config_.medium.sense_range_m + kReachMarginM;
        spatial_scratch_.clear();
        spatial_index_.neighbors(origin.x, reach, spatial_scratch_);
        for (const int i : spatial_scratch_) {
          out.push_back(aps_[static_cast<std::size_t>(i)]->mac().radio());
        }
        const Time now = sched_.now();
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          const channel::Vec2 pos =
              geometry_.client_position(static_cast<int>(c), now);
          if (channel::distance(origin, pos) <= reach) {
            out.push_back(clients_[c]->radio());
          }
        }
      });
  // Capture-effect power oracle: large-scale rx power of any transmitter at
  // any point, from the link-budget models.
  medium_.set_power_oracle([this](mac::RadioId tx, channel::Vec2 at) -> double {
    if (geometry_.num_clients() == 0) return -90.0;
    if (auto it = ap_idx_of_radio_.find(tx); it != ap_idx_of_radio_.end()) {
      return geometry_.link(it->second, 0).large_scale_rx_dbm(at);
    }
    if (auto it = client_idx_of_radio_.find(tx); it != client_idx_of_radio_.end()) {
      // Reciprocal: the client's power at `at` equals an AP-at-`at`'s power
      // at the client; use the nearest AP's link as the estimate (all APs
      // share the facade y, so the nearest along the road is nearest in 2-D).
      const channel::Vec2 cpos =
          geometry_.client_position(it->second, sched_.now());
      return geometry_.link(spatial_index_.nearest(at.x), it->second)
          .large_scale_rx_dbm(cpos);
    }
    return -90.0;
  });

  // Only the owning controller delivers a de-duplicated uplink stream (a
  // non-owner forwards raw uplink to the believed owner), so hooking every
  // controller yields each server packet exactly once.
  for (auto& ctrl : controllers_) {
    ctrl->on_uplink = [this](const net::Packet& p) {
      if (p.proto == net::Proto::kArp) return;  // background probes stop here
      if (!on_server_uplink) return;
      sched_.schedule_in(config_.server_latency,
                         [this, p] { on_server_uplink(p); },
                         sim::EventCategory::kBackhaul);
    };
  }
}

int WgttSystem::add_client(const mobility::Trajectory* trajectory) {
  const int idx = geometry_.add_client(trajectory);
  const net::ClientId cid{static_cast<std::uint32_t>(idx)};
  auto client = std::make_unique<core::WgttClient>(
      cid, sched_, medium_, rng_.fork(), config_.client, trajectory);
  client_idx_of_radio_[client->radio()] = idx;
  client->mac().set_channel_sampler(
      [this, idx](mac::RadioId peer) {
        return geometry_.sample(client_link(idx, peer), sched_.now());
      },
      [this, idx](mac::RadioId peer) {
        return geometry_.snr_ceiling_db(client_link(idx, peer), sched_.now());
      });
  if (metrics_ != nullptr) client->mac().set_metrics(metrics_, "client_mac");
  for (auto& ctrl : controllers_) ctrl->add_client(cid);
  int owner = 0;
  if (num_domains() > 1) {
    // Initial owner: the domain homing the AP nearest the client's start
    // position. Every controller starts from the same belief.
    owner = static_cast<int>(domain_map_.domain_of_ap(
        net::ApId{static_cast<std::uint32_t>(nearest_ap(idx))}));
    for (auto& ctrl : controllers_) {
      ctrl->set_client_owner(cid, static_cast<std::uint32_t>(owner));
    }
  }
  owner_of_.push_back(owner);
  clients_.push_back(std::move(client));
  return idx;
}

void WgttSystem::enable_metrics(obs::MetricsRegistry& registry,
                                Time sample_period) {
  metrics_ = &registry;
  metrics_sample_period_ = sample_period;
  // Controllers share instruments by key, so multi-domain counters
  // aggregate across domains in one registry entry.
  for (auto& ctrl : controllers_) ctrl->set_metrics(&registry);
  for (auto& ap : aps_) {
    ap->set_metrics(&registry);
    ap->mac().set_metrics(&registry, "mac");
  }
  for (auto& client : clients_) {
    client->mac().set_metrics(&registry, "client_mac");
  }
  // Pre-register the sampled gauges so a snapshot taken before the first
  // sampler tick already carries the keys.
  registry.gauge("system.cyclic_backlog_total");
  registry.gauge("system.hw_queue_depth_total");
  registry.histogram("system.cyclic_backlog_depth", 0.0, 4096.0, 128);
  // Backhaul-model gauges only exist when the bandwidth model or batching
  // is enabled — default-config snapshots must stay byte-identical to the
  // infinite-pipe engine (same gating discipline as the liveness metrics).
  if (config_.backhaul.link_rate_mbps > 0.0 || config_.backhaul.batching) {
    registry.gauge("backhaul.link_utilization");
    registry.gauge("backhaul.queue_drops");
    registry.gauge("net.pool_refs");
  }
  if (!metrics_sampler_) {
    metrics_sampler_ = std::make_unique<sim::Timer>(sched_, [this] {
      sample_system_metrics();
      metrics_sampler_->start(metrics_sample_period_);
    });
  }
  metrics_sampler_->start(metrics_sample_period_);
}

void WgttSystem::sample_system_metrics() {
  if (metrics_ == nullptr) return;
  std::size_t backlog = 0;
  std::size_t hw_depth = 0;
  for (const auto& ap : aps_) ap->queue_totals(backlog, hw_depth);
  metrics_->gauge("system.cyclic_backlog_total")
      .set(static_cast<double>(backlog));
  metrics_->gauge("system.hw_queue_depth_total")
      .set(static_cast<double>(hw_depth));
  metrics_->histogram("system.cyclic_backlog_depth", 0.0, 4096.0, 128)
      .observe(static_cast<double>(backlog));
  if (config_.backhaul.link_rate_mbps > 0.0 || config_.backhaul.batching) {
    metrics_->gauge("backhaul.link_utilization")
        .set(backhaul_.max_link_utilization(sched_.now()));
    metrics_->gauge("backhaul.queue_drops")
        .set(static_cast<double>(backhaul_.queue_drops()));
    metrics_->gauge("net.pool_refs")
        .set(static_cast<double>(payload_pool_.total_refs()));
  }
}

void WgttSystem::start() {
  if (started_) return;
  started_ = true;
  // Replicated association (§4.3): every AP learns every client.
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const net::ClientId cid{static_cast<std::uint32_t>(c)};
    for (auto& ap : aps_) ap->register_client(cid, clients_[c]->radio());
    clients_[c]->start_probing();
  }

  if (config_.channel_reuse > 1) {
    // §7 multi-channel: AP i on channel i mod N; each client follows its
    // serving AP's channel (checked every millisecond — optimistic: a real
    // client needs a channel-switch announcement, so this is a LOWER bound
    // on the cost of multi-channel operation).
    for (int i = 0; i < num_aps(); ++i) {
      medium_.set_radio_channel(aps_[static_cast<std::size_t>(i)]->mac().radio(),
                                1 + i % config_.channel_reuse);
    }
    client_retuning_.assign(clients_.size(), false);
    scan_next_offset_.assign(clients_.size(), 1);

    // Off-channel scanning: periodically hop to another channel, announce
    // with a probe, and return — that is how APs on other channels obtain
    // CSI for this client, making cross-channel switches possible at all.
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      scan_timers_.push_back(std::make_unique<sim::Timer>(
          sched_,
          [this, c] {
        if (!client_retuning_[c]) {
          const mac::RadioId radio = clients_[c]->radio();
          const int current = medium_.radio_channel(radio);
          if (current != mac::Medium::kNoChannel) {
            int& off = scan_next_offset_[c];
            const int scan_ch =
                1 + (current - 1 + off) % config_.channel_reuse;
            off = 1 + off % (config_.channel_reuse - 1);
            client_retuning_[c] = true;  // suspend channel-follow
            medium_.set_radio_channel(radio, scan_ch);
            clients_[c]->probe_now();
            sched_.schedule_in(config_.scan_dwell,
                               [this, c, radio, current] {
                                 medium_.set_radio_channel(radio, current);
                                 client_retuning_[c] = false;
                               },
                               sim::EventCategory::kChannel);
          }
        }
        scan_timers_[c]->start(config_.scan_period);
      },
          sim::EventCategory::kChannel));
      // Stagger scans so clients do not hop in lockstep.
      scan_timers_.back()->start(config_.scan_period +
                                 Time::ms(static_cast<std::int64_t>(c) * 37));
    }

    channel_follow_timer_ = std::make_unique<sim::Timer>(
        sched_,
        [this] {
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        if (client_retuning_[c]) continue;
        const int serving = serving_ap(static_cast<int>(c));
        if (serving < 0) continue;
        const int want = 1 + serving % config_.channel_reuse;
        const mac::RadioId radio = clients_[c]->radio();
        if (medium_.radio_channel(radio) == want) continue;
        // Retune: blackout, then land on the new channel.
        client_retuning_[c] = true;
        medium_.set_radio_channel(radio, mac::Medium::kNoChannel);
        sched_.schedule_in(config_.retune_blackout,
                           [this, c, radio, want] {
                             medium_.set_radio_channel(radio, want);
                             client_retuning_[c] = false;
                           },
                           sim::EventCategory::kChannel);
      }
      channel_follow_timer_->start(Time::ms(1));
    },
        sim::EventCategory::kChannel);
    channel_follow_timer_->start(Time::ms(1));
  }

  // Scripted AP faults (DESIGN.md §7). Events are plain scheduler entries:
  // an empty script list adds nothing to the event stream.
  for (const auto& fs : config_.ap_faults) {
    if (fs.ap < 0 || fs.ap >= num_aps()) continue;
    const int i = fs.ap;
    if (fs.crash_at) {
      sched_.schedule_at(*fs.crash_at, [this, i] { crash_ap(i); },
                         sim::EventCategory::kControl);
    }
    if (fs.restart_at) {
      sched_.schedule_at(*fs.restart_at, [this, i] { restart_ap(i); },
                         sim::EventCategory::kControl);
    }
    if (fs.zombie_at) {
      sched_.schedule_at(*fs.zombie_at,
                         [this, i] { set_ap_backhaul(i, false); },
                         sim::EventCategory::kControl);
    }
    if (fs.zombie_end_at) {
      sched_.schedule_at(*fs.zombie_end_at,
                         [this, i] { set_ap_backhaul(i, true); },
                         sim::EventCategory::kControl);
    }
    for (const auto& [from, until] : fs.partitions) {
      sched_.schedule_at(from, [this, i] { set_ap_backhaul(i, false); },
                         sim::EventCategory::kControl);
      sched_.schedule_at(until, [this, i] { set_ap_backhaul(i, true); },
                         sim::EventCategory::kControl);
    }
  }

  // Scripted controller faults (DESIGN.md §12). Meaningless with a single
  // domain — there is nobody to fail over to — so they are dropped there.
  if (num_domains() > 1) {
    for (const auto& fs : config_.controller_faults) {
      if (fs.domain < 0 || fs.domain >= num_domains()) continue;
      const int d = fs.domain;
      if (fs.crash_at) {
        sched_.schedule_at(*fs.crash_at, [this, d] { crash_controller(d); },
                           sim::EventCategory::kControl);
      }
      if (fs.restart_at) {
        sched_.schedule_at(*fs.restart_at,
                           [this, d] { restart_controller(d); },
                           sim::EventCategory::kControl);
      }
    }
  }
}

void WgttSystem::crash_controller(int d) {
  if (num_domains() <= 1) return;
  auto& ctrl = *controllers_.at(static_cast<std::size_t>(d));
  if (ctrl.crashed()) return;
  // Fail-stop: the process and its backhaul port die together. In-flight
  // messages to it are dropped by the link model, not queued.
  backhaul_.set_node_up(
      net::NodeId::controller(static_cast<std::uint32_t>(d)), false);
  ctrl.set_crashed(true);
  last_controller_fault_ = sched_.now();
}

void WgttSystem::restart_controller(int d) {
  if (num_domains() <= 1) return;
  auto& ctrl = *controllers_.at(static_cast<std::size_t>(d));
  if (!ctrl.crashed()) return;
  backhaul_.set_node_up(
      net::NodeId::controller(static_cast<std::uint32_t>(d)), true);
  // Cold restart: ownership is re-learned from peer gossip; the home APs
  // migrate back via AdoptAp once the peers see the heartbeats again.
  ctrl.set_crashed(false);
  last_controller_fault_ = sched_.now();
}

void WgttSystem::crash_ap(int i) {
  auto& ap = *aps_.at(static_cast<std::size_t>(i));
  if (ap.crashed()) return;
  const mac::RadioId radio = ap.mac().radio();
  // Power loss takes everything at once: the radio off the air, the
  // backhaul port dark, and the process state (modelled inside crash()).
  ap_channel_before_crash_[static_cast<std::size_t>(i)] =
      medium_.radio_channel(radio);
  medium_.set_radio_channel(radio, mac::Medium::kNoChannel);
  backhaul_.set_node_up(net::NodeId::ap(net::ApId{static_cast<std::uint32_t>(i)}),
                        false);
  ap.crash();
}

void WgttSystem::restart_ap(int i) {
  auto& ap = *aps_.at(static_cast<std::size_t>(i));
  if (!ap.crashed()) return;
  const mac::RadioId radio = ap.mac().radio();
  medium_.set_radio_channel(radio,
                            ap_channel_before_crash_[static_cast<std::size_t>(i)]);
  backhaul_.set_node_up(net::NodeId::ap(net::ApId{static_cast<std::uint32_t>(i)}),
                        true);
  // Association state needs no over-the-air handshake: the shared-BSSID
  // replication (§4.3) means the restarted AP re-reads every client's
  // sta_info from the replicated store — register_client state persists in
  // the WgttAp across the crash, only volatile queue state was wiped.
  ap.restart();
}

void WgttSystem::set_ap_backhaul(int i, bool up) {
  backhaul_.set_node_up(net::NodeId::ap(net::ApId{static_cast<std::uint32_t>(i)}),
                        up);
}

int WgttSystem::route_domain(int client) const {
  const auto c = static_cast<std::size_t>(client);
  int d = c < owner_of_.size() ? owner_of_[c] : 0;
  if (d < 0 || d >= num_domains() ||
      controllers_[static_cast<std::size_t>(d)]->crashed()) {
    // Owner down (or unknown): hand to the lowest-index alive controller.
    // It forwards to — or stands in for — whoever adopts the client; the
    // adopter re-announces itself through on_ownership_changed.
    for (int i = 0; i < num_domains(); ++i) {
      if (!controllers_[static_cast<std::size_t>(i)]->crashed()) {
        d = i;
        break;
      }
    }
  }
  return std::max(d, 0);
}

const core::Controller& WgttSystem::route_controller(int client) const {
  return *controllers_.at(static_cast<std::size_t>(route_domain(client)));
}

const core::Controller& WgttSystem::ap_controller(std::size_t a) const {
  const std::uint32_t d = aps_[a]->controller_node().index;
  if (d < controllers_.size()) return *controllers_[d];
  return *controllers_.front();
}

void WgttSystem::server_send(net::Packet packet) {
  sched_.schedule_in(config_.server_latency,
                     [this, p = std::move(packet)] {
                       const auto c = static_cast<int>(net::index_of(p.client));
                       controller(route_domain(c)).send_downlink(p);
                     },
                     sim::EventCategory::kBackhaul);
}

int WgttSystem::serving_ap(int client) const {
  const auto ap = route_controller(client).serving_ap(
      net::ClientId{static_cast<std::uint32_t>(client)});
  return ap ? static_cast<int>(net::index_of(*ap)) : -1;
}

InvariantReport WgttSystem::check_invariants(Time stall_bound,
                                             Time serving_grace) const {
  InvariantReport report;
  const Time now = sched_.now();
  // An AP is `settled` when its serving flags are trustworthy evidence:
  // Alive and not readmitted within the grace period. A Dead or zombie AP
  // legitimately holds stale serving state until its quench lands; judging
  // it would turn every mid-failover snapshot into a false positive.
  const auto settled = [&](std::size_t a) {
    if (aps_[a]->crashed()) return false;
    // Judge by the controller currently homing the AP (AdoptAp re-homing
    // included); an AP whose controller is down holds legitimately stale
    // serving state until a survivor adopts and re-drives it.
    const core::Controller& cc = ap_controller(a);
    if (cc.crashed()) return false;
    const auto h = cc.ap_health(net::ApId{static_cast<std::uint32_t>(a)});
    return h.state == core::Controller::ApLiveness::kAlive &&
           now - h.since > serving_grace;
  };
  // Serving-count aggregation, inverted: instead of probing every AP per
  // client (A x C map lookups), walk each settled AP's (short) serving list
  // once. Integer sums are order-free, so the counts are identical.
  std::vector<char> settled_ap(aps_.size(), 0);
  for (std::size_t a = 0; a < aps_.size(); ++a) {
    settled_ap[a] = settled(a) ? 1 : 0;
  }
  std::vector<int> serving_count(clients_.size(), 0);
  for (std::size_t a = 0; a < aps_.size(); ++a) {
    if (!settled_ap[a]) continue;
    for (const net::ClientId cid : aps_[a]->serving_clients()) {
      const std::size_t c = net::index_of(cid);
      if (c < serving_count.size()) ++serving_count[c];
    }
  }
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const net::ClientId cid{static_cast<std::uint32_t>(c)};
    // The controller whose view of this client we judge: the one the
    // server currently routes through (the owner, modulo failover).
    const core::Controller& ctrl = route_controller(static_cast<int>(c));

    // Every initiated switch completes or is superseded: an outstanding
    // switch older than the stall bound means the retransmit chain wedged.
    if (const auto since = ctrl.pending_switch_since(cid)) {
      if (now - *since > stall_bound) {
        ++report.stalled_switches;
        report.violations.push_back(
            "client " + std::to_string(c) + ": switch pending for " +
            std::to_string((now - *since).to_millis()) + " ms");
      }
    }

    // At most one serving AP per client after quiesce. During a switch the
    // old AP legitimately keeps draining its hardware queue for a few ms
    // (the paper accepts ~6 ms of residual transmissions), so only judge
    // clients with no switch in flight and a completed switch at least
    // `serving_grace` ago.
    const bool quiesced =
        !ctrl.pending_switch_since(cid).has_value() &&
        !ctrl.handover_pending(cid) &&
        now - ctrl.last_switch_completed(cid) > serving_grace;
    if (quiesced) {
      if (serving_count[c] > 1) {
        ++report.duplicate_serving;
        report.violations.push_back("client " + std::to_string(c) + ": " +
                                    std::to_string(serving_count[c]) +
                                    " APs serving after quiesce");
      }
      // Controller and AP layer must agree on who is serving.
      const int ctrl_view = serving_ap(static_cast<int>(c));
      if (ctrl_view >= 0 && settled_ap[static_cast<std::size_t>(ctrl_view)] &&
          !aps_[static_cast<std::size_t>(ctrl_view)]->serving(cid)) {
        ++report.serving_disagreements;
        report.violations.push_back(
            "client " + std::to_string(c) + ": controller says AP " +
            std::to_string(ctrl_view) + " but that AP is not serving");
      }
    }

    // A client must not stay routed through an AP the controller itself
    // declared Dead: forced failover (or the degraded-mode unserve) bounds
    // the stall under single-AP failure.
    const int ctrl_view = serving_ap(static_cast<int>(c));
    if (ctrl_view >= 0) {
      const auto h = ap_controller(static_cast<std::size_t>(ctrl_view))
                         .ap_health(
          net::ApId{static_cast<std::uint32_t>(ctrl_view)});
      if (h.state == core::Controller::ApLiveness::kDead &&
          now - h.since > stall_bound) {
        ++report.dead_serving;
        report.violations.push_back(
            "client " + std::to_string(c) + ": still routed through Dead AP " +
            std::to_string(ctrl_view) + " after " +
            std::to_string((now - h.since).to_millis()) + " ms");
      }
    }
  }

  // No cyclic-queue index regression anywhere: applying a start must never
  // rewind an already-serving AP's drain pointer.
  for (const auto& ap : aps_) {
    report.index_regressions += ap->stats().index_regressions;
  }
  if (report.index_regressions > 0) {
    report.violations.push_back(
        std::to_string(report.index_regressions) +
        " cyclic-queue index regression(s) across the AP set");
  }

  // A crashed AP delivers nothing: its MAC-level delivered count must still
  // equal the snapshot taken at the crash instant.
  for (std::size_t a = 0; a < aps_.size(); ++a) {
    if (!aps_[a]->crashed()) continue;
    const auto delivered = aps_[a]->mac().total_stats().mpdus_delivered;
    if (delivered != aps_[a]->delivered_at_crash()) {
      ++report.dead_ap_deliveries;
      report.violations.push_back(
          "AP " + std::to_string(a) + ": delivered " +
          std::to_string(delivered - aps_[a]->delivered_at_crash()) +
          " MPDU(s) while crashed");
    }
  }

  // Multi-domain ownership rules (DESIGN.md §12): once the system has had
  // a stall bound to settle after the last controller fault, every client
  // is owned by exactly one non-crashed controller — unless a handover or
  // transfer-landing switch is in flight, which legitimately overlaps
  // (source keeps ownership until the ack) or gaps (never) the sets.
  bool domains_settled =
      !last_controller_fault_ || now - *last_controller_fault_ > stall_bound;
  // Peer-liveness churn counts too: under a lossy inter-controller link a
  // controller can falsely declare a live peer dead, adopt its clients, and
  // heal via gossip once the heartbeats recover. That dual-ownership window
  // is failover in flight, not a violation — exempt it the same way as a
  // scripted crash, keyed off each controller's own transition clock.
  for (const auto& ctrl : controllers_) {
    const auto t = ctrl->last_peer_transition();
    if (t && now - *t <= stall_bound) domains_settled = false;
  }
  if (num_domains() > 1 && domains_settled) {
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      const net::ClientId cid{static_cast<std::uint32_t>(c)};
      int owners = 0;
      bool in_flight = false;
      bool any_alive = false;
      for (const auto& ctrl : controllers_) {
        if (ctrl->crashed()) continue;
        any_alive = true;
        if (ctrl->owns_client(cid)) ++owners;
        if (ctrl->handover_pending(cid) ||
            ctrl->pending_switch_since(cid).has_value()) {
          in_flight = true;
        }
      }
      if (!any_alive || in_flight) continue;
      if (owners > 1) {
        ++report.ownership_violations;
        report.violations.push_back(
            "client " + std::to_string(c) + ": owned by " +
            std::to_string(owners) + " domains with no handover in flight");
      } else if (owners == 0) {
        ++report.orphaned_clients;
        report.violations.push_back(
            "client " + std::to_string(c) +
            ": no surviving domain owns it after failover settled");
      }
    }
  }
  return report;
}

std::optional<LinkIndex> WgttSystem::ap_link(int ap, mac::RadioId peer) const {
  auto it = client_idx_of_radio_.find(peer);
  if (it == client_idx_of_radio_.end()) return std::nullopt;
  return LinkIndex{ap, it->second};
}

std::optional<LinkIndex> WgttSystem::client_link(int client,
                                                 mac::RadioId peer) const {
  // Rate-control query against "the AP": approximate with the nearest.
  if (peer == mac::kBssidWgtt) return LinkIndex{nearest_ap(client), client};
  auto it = ap_idx_of_radio_.find(peer);
  if (it == ap_idx_of_radio_.end()) return std::nullopt;
  return LinkIndex{it->second, client};
}

int WgttSystem::nearest_ap(int client) const {
  return spatial_index_.nearest(
      geometry_.client_position(client, sched_.now()).x);
}

int WgttSystem::optimal_ap(int client, Time now) const {
  const channel::Vec2 pos = geometry_.client_position(client, now);
  spatial_scratch_.clear();
  spatial_index_.neighbors(pos.x, config_.medium.sense_range_m + kReachMarginM,
                           spatial_scratch_);
  // An AP outside sense range cannot be heard at all, so it can never be
  // the accuracy metric's ground-truth choice; when the whole array is out
  // of range the nearest AP is the degenerate answer.
  if (spatial_scratch_.empty()) return spatial_index_.nearest(pos.x);
  // Exact ESNR only while an AP's 64-QAM ESNR ceiling can still reach the
  // best found (DESIGN.md §14): the answer is the full scan's.
  probe_scratch_.clear();
  for (const int ap : spatial_scratch_) {
    probe_scratch_.push_back(
        {phy::esnr_ceiling_db(geometry_.link(ap, client).snr_ceiling_db(pos),
                              phy::Modulation::kQam64),
         ap});
  }
  return pruned_argmax(probe_scratch_, [&](int ap) {
    return geometry_.esnr_db(ap, client, now);
  });
}

}  // namespace wgtt::scenario
