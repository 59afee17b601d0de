// Robustness and failure-injection tests: control-plane packet loss on the
// switching protocol, AP crash/zombie liveness and forced failover, fuzzed
// queue/filter workloads, and end-to-end behaviour under degraded
// conditions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ap/cyclic_queue.h"
#include "mac/block_ack.h"
#include "mobility/trajectory.h"
#include "obs/metrics.h"
#include "scenario/wgtt_system.h"
#include "transport/udp.h"
#include "util/rng.h"

namespace wgtt {
namespace {

// --- control-plane loss -------------------------------------------------------

// The switching protocol must survive lossy backhaul control delivery via
// its 30 ms retransmission (paper §3.1.2). We inject heavy random loss on
// the backhaul and require the system to keep delivering data and keep the
// serving AP moving with the client.
TEST(ControlPlaneLoss, SwitchingSurvivesBackhaulLoss) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 303;
  cfg.backhaul.loss_rate = 0.15;  // 15% of ALL backhaul messages vanish
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  sys.client(c).on_downlink = [&](const net::Packet& p) {
    sink.on_packet(sys.now(), p);
  };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 15.0, .client = net::ClientId{0}});
  src.start();
  sys.run_until(Time::sec(9));
  // Retransmissions kicked in...
  EXPECT_GT(sys.controller().stats().stop_retransmissions, 0u);
  // ...and both the control plane and the data plane stayed alive.
  EXPECT_GT(sys.controller().stats().switches_completed, 5u);
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(2), Time::sec(9)), 2.0);
  // The serving AP followed the car down the road.
  EXPECT_GE(sys.serving_ap(c), 4);
}

TEST(ControlPlaneLoss, NoSwitchLivelockUnderTotalAckLoss) {
  // Even with extreme control loss the controller never wedges: the
  // at-most-one-outstanding-switch rule plus the 30 ms timer keeps
  // retrying, and the data path keeps using the old AP meanwhile.
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 304;
  cfg.backhaul.loss_rate = 0.5;
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({22.5, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  sys.client(c).on_downlink = [](const net::Packet&) {};
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 8.0, .client = net::ClientId{0}});
  src.start();
  sys.run_until(Time::sec(6));
  // Initiated switches are eventually resolved or retried; the run ends
  // with a serving AP in place.
  EXPECT_NE(sys.serving_ap(c), -1);
}

// Regression for the duplicate-StartMsg rewind bug: drop exactly the FIRST
// SwitchAck. The controller's 30 ms timer retransmits, the duplicate
// control message reaches an AP that already acted on the original, and
// pre-fix that re-applied the start index — rewinding next_index and
// re-transmitting (or, on the bootstrap path, skipping) packets. Post-fix
// the duplicate is answered idempotently: same recorded index, ack replay,
// no queue-pointer movement.
TEST(ControlPlaneLoss, DroppedFirstSwitchAckIsIdempotent) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 311;
  cfg.backhaul.fault(net::MsgKind::kSwitchAck).drop_first = 1;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  std::map<std::uint64_t, int> deliveries;  // uid -> times delivered
  sys.client(c).on_downlink = [&](const net::Packet& p) { ++deliveries[p.uid]; };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 10.0, .client = net::ClientId{0}});
  src.start();
  sys.run_until(Time::sec(6));

  // The lost ack forced the retransmit chain through the duplicate path.
  EXPECT_GE(sys.controller().stats().stop_retransmissions, 1u);
  std::uint64_t duplicates_answered = 0;
  for (int i = 0; i < sys.num_aps(); ++i) {
    duplicates_answered += sys.ap(i).stats().stop_duplicates +
                           sys.ap(i).stats().start_duplicates;
  }
  EXPECT_GE(duplicates_answered, 1u);
  // Exactly-once delivery: no packet reached the client twice (pre-fix the
  // rewound pointer re-transmitted everything after the duplicated start).
  for (const auto& [uid, times] : deliveries) {
    ASSERT_LE(times, 1) << "packet " << uid << " delivered " << times
                        << " times";
  }
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
  EXPECT_NE(sys.serving_ap(c), -1);
}

// Loss sweep (the ISSUE's acceptance case): for each seed, a probe-driven
// drive-by is run losslessly and then under 1% and 5% loss. Two loss
// shapes, two claims:
//   - UNIFORM loss (every backhaul message, CSI included): the protocol
//     invariants must hold — this is the acceptance criterion.
//   - CONTROL-PLANE loss (stop/start/ack only, via the fault plans): the
//     selection inputs are untouched, so the retransmission machinery must
//     also keep the per-client switch count within +/-1 of the lossless
//     run — a lost control message may delay a switch, never add or lose
//     one. (Under uniform loss the count legitimately drifts more: dropped
//     CSI changes the selection itself, not the protocol.)
class LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(LossSweep, InvariantsHoldAndSwitchCountStable) {
  const std::uint64_t seed = 400 + static_cast<std::uint64_t>(GetParam());
  auto run = [&](double loss, bool control_only) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = seed;
    if (control_only) {
      for (const auto kind : {net::MsgKind::kStop, net::MsgKind::kStart,
                              net::MsgKind::kSwitchAck}) {
        cfg.backhaul.fault(kind).loss_rate = loss;
      }
    } else {
      cfg.backhaul.loss_rate = loss;
    }
    // Probe-driven runs see CSI every 50 ms, so the paper's 10 ms window
    // would hold a single sample and the "median" would be one noisy
    // reading. Window + margin + hysteresis make the switch sequence
    // geometry-driven (roughly one switch per picocell crossing).
    cfg.controller.selection_window = Time::ms(200);
    cfg.controller.switch_margin_db = 1.0;
    cfg.controller.switch_hysteresis = Time::ms(150);
    scenario::WgttSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    (void)sys.add_client(&drive);
    sys.start();  // probe-driven: no data traffic needed to exercise switching
    sys.run_until(Time::sec(8));
    const auto report = sys.check_invariants();
    EXPECT_TRUE(report.ok())
        << "loss=" << loss << " control_only=" << control_only
        << " seed=" << seed << ": " << report.violations.front();
    EXPECT_EQ(report.index_regressions, 0u);
    return sys.controller().stats().switches_completed;
  };
  const std::uint64_t baseline = run(0.0, false);
  EXPECT_GE(baseline, 3u);  // the drive-by crosses several picocells
  for (const double loss : {0.01, 0.05}) {
    (void)run(loss, false);  // uniform loss: invariants checked inside
    const std::uint64_t lossy = run(loss, true);
    const std::uint64_t diff =
        lossy > baseline ? lossy - baseline : baseline - lossy;
    EXPECT_LE(diff, 1u) << "control loss=" << loss << " seed=" << seed
                        << ": baseline=" << baseline << " lossy=" << lossy;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSweep, ::testing::Range(0, 20));

TEST(ControlPlaneFaults, MixedControlFaultsKeepInvariants) {
  // Duplication, targeted loss and reorder-free extra delay on the control
  // plane all at once: the epoch guard must keep the handshake idempotent.
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 313;
  cfg.backhaul.fault(net::MsgKind::kStop).dup_rate = 0.3;
  cfg.backhaul.fault(net::MsgKind::kStart).dup_rate = 0.3;
  cfg.backhaul.fault(net::MsgKind::kStart).delay_rate = 0.3;
  cfg.backhaul.fault(net::MsgKind::kStart).delay_max = Time::ms(5);
  cfg.backhaul.fault(net::MsgKind::kSwitchAck).loss_rate = 0.2;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  sys.run_until(Time::sec(8));
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
  EXPECT_NE(sys.serving_ap(c), -1);
  // The fault machinery actually fired.
  EXPECT_GT(sys.controller().stats().switches_completed, 3u);
  std::uint64_t idempotent_replies = 0;
  for (int i = 0; i < sys.num_aps(); ++i) {
    idempotent_replies += sys.ap(i).stats().stop_duplicates +
                          sys.ap(i).stats().start_duplicates +
                          sys.ap(i).stats().stale_control_ignored;
  }
  EXPECT_GT(idempotent_replies, 0u);
}

// --- AP liveness, crash failover, and degraded-mode recovery ------------------

// Hard-crash the SERVING AP mid-drive and bound the delivery outage: the
// heartbeat machinery needs at most (miss_threshold + 1) intervals to
// declare death (a probe sent at tick N is judged at tick N+1), and the
// forced failover is one start/ack round trip on a healthy backhaul. The
// paper's protocol machinery contributes ~1 ms; the bound is dominated by
// detection.
TEST(ApFailover, ServingApCrashRecoversWithinDetectionBound) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 501;
  cfg.controller.liveness_enabled = true;
  // Windowed median selection (as in LossSweep): the crashed AP's samples
  // stay in the argmax until eviction, so recovery genuinely rides the
  // liveness path rather than CSI staleness.
  cfg.controller.selection_window = Time::ms(200);
  cfg.controller.switch_margin_db = 1.0;
  cfg.controller.switch_hysteresis = Time::ms(150);
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();

  const Time crash_at = Time::sec(3);
  std::map<std::uint64_t, int> deliveries;
  Time first_after_crash = Time::ms(-1);
  sys.client(c).on_downlink = [&](const net::Packet& p) {
    ++deliveries[p.uid];
    if (sys.now() > crash_at && first_after_crash < Time::zero()) {
      first_after_crash = sys.now();
    }
  };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 20.0, .client = net::ClientId{0}});
  src.start();

  int crashed_ap = -1;
  sys.sched().schedule_at(crash_at, [&] {
    crashed_ap = sys.serving_ap(c);
    ASSERT_GE(crashed_ap, 0);
    sys.crash_ap(crashed_ap);
  });
  sys.run_until(Time::sec(6));

  ASSERT_GE(crashed_ap, 0);
  EXPECT_GE(sys.controller().stats().aps_marked_dead, 1u);
  EXPECT_GE(sys.controller().stats().forced_failovers, 1u);
  EXPECT_NE(sys.serving_ap(c), crashed_ap);
  // Outage bound: detection + one switch round trip + scheduling slack.
  const Time bound = cfg.controller.heartbeat_interval *
                         (cfg.controller.heartbeat_miss_threshold + 1) +
                     Time::ms(50);
  ASSERT_GE(first_after_crash, Time::zero()) << "downlink never recovered";
  EXPECT_LE(first_after_crash - crash_at, bound);
  // Exactly-once delivery: the failover replay overlap must be absorbed by
  // the MAC scoreboard and the uid filter, never surfaced twice.
  for (const auto& [uid, times] : deliveries) {
    ASSERT_LE(times, 1) << "packet " << uid << " delivered " << times
                        << " times";
  }
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
}

// Zombie window: the serving AP's backhaul dies while its radio keeps
// transmitting stale backlog. The controller must fail the client over,
// and once the link heals, quench the zombie so no two APs serve the
// client after things settle.
TEST(ApFailover, ZombieServingApQuenchedAfterLinkHeals) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 503;
  cfg.controller.selection_window = Time::ms(200);
  cfg.controller.switch_margin_db = 1.0;
  cfg.controller.switch_hysteresis = Time::ms(150);
  // Parked next to AP1 so the zombie script targets the serving AP.
  scenario::ApFaultScript fs;
  fs.ap = 1;
  fs.zombie_at = Time::sec(3);
  fs.zombie_end_at = Time::sec(4) + Time::ms(500);
  cfg.ap_faults.push_back(fs);  // auto-enables liveness
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({7.5, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  std::map<std::uint64_t, int> deliveries;
  sys.client(c).on_downlink = [&](const net::Packet& p) { ++deliveries[p.uid]; };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 15.0, .client = net::ClientId{0}});
  src.start();
  sys.run_until(Time::sec(3));
  ASSERT_EQ(sys.serving_ap(c), 1);  // parked at AP1: it must be serving
  sys.run_until(Time::sec(7));

  // The zombie was declared dead and the client failed over off it.
  EXPECT_GE(sys.controller().stats().aps_marked_dead, 1u);
  EXPECT_GE(sys.controller().stats().forced_failovers, 1u);
  // The link healed: the AP was readmitted and its stale serving state
  // quenched (directly, or superseded by a fresh switch back onto it).
  EXPECT_GE(sys.controller().stats().aps_readmitted, 1u);
  using Liveness = core::Controller::ApLiveness;
  EXPECT_EQ(sys.controller().ap_health(net::ApId{1}).state, Liveness::kAlive);
  // No packet surfaced twice despite the zombie draining stale backlog.
  for (const auto& [uid, times] : deliveries) {
    ASSERT_LE(times, 1) << "packet " << uid << " delivered " << times
                        << " times";
  }
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.duplicate_serving, 0);
  EXPECT_EQ(report.index_regressions, 0u);
}

// Figure-17 style: several staggered clients mid-drive when an AP in the
// middle of the array crashes and later restarts. Every client keeps its
// stream, the restarted AP rejoins (association replayed from the
// replicated store), and the protocol invariants hold throughout.
TEST(ApFailover, MultiClientMidDriveCrashAllRecover) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 505;
  cfg.controller.selection_window = Time::ms(200);
  cfg.controller.switch_margin_db = 1.0;
  cfg.controller.switch_hysteresis = Time::ms(150);
  scenario::ApFaultScript fs;
  fs.ap = 3;
  fs.crash_at = Time::sec(3) + Time::ms(500);
  fs.restart_at = Time::sec(5);
  cfg.ap_faults.push_back(fs);
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive d0(-10.0, 0.0, mph_to_mps(15.0));
  mobility::LineDrive d1(-17.5, 0.0, mph_to_mps(15.0));
  mobility::LineDrive d2(-25.0, 0.0, mph_to_mps(15.0));
  const int c0 = sys.add_client(&d0);
  const int c1 = sys.add_client(&d1);
  const int c2 = sys.add_client(&d2);
  sys.start();
  std::map<int, std::map<std::uint64_t, int>> deliveries;
  std::map<int, std::uint64_t> after_restart;
  for (int c : {c0, c1, c2}) {
    sys.client(c).on_downlink = [&, c](const net::Packet& p) {
      ++deliveries[c][p.uid];
      if (sys.now() > Time::sec(5)) ++after_restart[c];
    };
  }
  std::vector<std::unique_ptr<transport::UdpSource>> sources;
  for (int c : {c0, c1, c2}) {
    sources.push_back(std::make_unique<transport::UdpSource>(
        sys.sched(),
        [&, c](net::Packet p) {
          p.client = net::ClientId{static_cast<std::uint32_t>(c)};
          sys.server_send(std::move(p));
        },
        transport::UdpSource::Config{
            .rate_mbps = 8.0,
            .client = net::ClientId{static_cast<std::uint32_t>(c)}}));
    sources.back()->start();
  }
  sys.run_until(Time::sec(9));

  EXPECT_EQ(sys.controller().stats().aps_marked_dead, 1u);
  EXPECT_GE(sys.controller().stats().aps_readmitted, 1u);
  for (int c : {c0, c1, c2}) {
    // Every client's stream survived past the crash/restart window.
    EXPECT_GT(after_restart[c], 0u) << "client " << c << " starved";
    for (const auto& [uid, times] : deliveries[c]) {
      ASSERT_LE(times, 1) << "client " << c << " packet " << uid
                          << " delivered " << times << " times";
    }
    EXPECT_NE(sys.serving_ap(c), -1);
  }
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
  EXPECT_EQ(report.dead_ap_deliveries, 0);
}

// Degraded mode: every AP with in-window CSI is dead. The controller must
// drop the client to unserved (not wedge on a corpse) and re-bootstrap as
// soon as fresh CSI arrives from a live AP.
TEST(ApFailover, AllCandidatesDeadDropsToUnservedThenRebootstraps) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 507;
  cfg.controller.liveness_enabled = true;
  cfg.controller.selection_window = Time::ms(200);
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({0.0, 0.0});  // parked at AP0: neighbours far
  const int c = sys.add_client(&pos);
  sys.start();
  sys.client(c).on_downlink = [](const net::Packet&) {};
  sys.run_until(Time::sec(2));
  const int serving = sys.serving_ap(c);
  ASSERT_GE(serving, 0);
  // Crash the serving AP and every neighbour close enough to have
  // in-window CSI: the failover has no usable candidate.
  for (int i = 0; i < sys.num_aps(); ++i) {
    if (std::abs(i - serving) <= 2) sys.crash_ap(i);
  }
  sys.run_until(Time::sec(2) + Time::ms(500));
  // The failover found no usable candidate and dropped to unserved rather
  // than wedging on a corpse. (A distant live AP's probe CSI may already
  // have re-bootstrapped the client by now — that IS the recovery path —
  // but it must never land on a dead AP.)
  EXPECT_GE(sys.controller().stats().failovers_unserved, 1u);
  const int mid_outage = sys.serving_ap(c);
  if (mid_outage != -1) {
    EXPECT_GT(std::abs(mid_outage - serving), 2)
        << "re-bootstrapped onto a dead AP";
  }
  // The neighbourhood comes back; probe-driven CSI re-bootstraps the
  // client through the normal path.
  for (int i = 0; i < sys.num_aps(); ++i) {
    if (std::abs(i - serving) <= 2) sys.restart_ap(i);
  }
  sys.run_until(Time::sec(5));
  EXPECT_NE(sys.serving_ap(c), -1);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

// Satellite: opt-in backhaul reordering on the control plane. Stops,
// starts and acks overtaking each other must be absorbed by the epoch
// guards exactly like duplicates and delays.
TEST(ControlPlaneFaults, ControlReorderingKeepsInvariants) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 509;
  for (const auto kind : {net::MsgKind::kStop, net::MsgKind::kStart,
                          net::MsgKind::kSwitchAck}) {
    cfg.backhaul.fault(kind).reorder_rate = 0.4;
    cfg.backhaul.fault(kind).reorder_max = Time::ms(10);
  }
  cfg.controller.selection_window = Time::ms(200);
  cfg.controller.switch_margin_db = 1.0;
  cfg.controller.switch_hysteresis = Time::ms(150);
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  sys.run_until(Time::sec(8));
  EXPECT_GT(sys.backhaul().messages_reordered(), 0u)
      << "reorder injection never fired";
  EXPECT_GT(sys.controller().stats().switches_completed, 3u);
  EXPECT_NE(sys.serving_ap(c), -1);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
}

// Satellite: the determinism contract. All the liveness/fault machinery is
// opt-in; with every knob at rest a seeded run must be BYTE-identical (via
// its full metrics snapshot) to one whose config never mentions the new
// fields. 20 seeds, probe-driven drives.
TEST(ApFailoverDeterminism, ZeroFaultScriptKeepsSeededRunsByteIdentical) {
  auto snapshot = [](std::uint64_t seed, bool mention_idle_knobs) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = seed;
    if (mention_idle_knobs) {
      // Touch every new knob without arming any of them: empty fault
      // script list, reorder rate zero, liveness tuning behind a master
      // switch that stays off.
      cfg.ap_faults.clear();
      cfg.backhaul.fault(net::MsgKind::kDownlinkData).reorder_max = Time::ms(5);
      cfg.controller.heartbeat_interval = Time::ms(10);
      cfg.controller.heartbeat_miss_threshold = 2;
      cfg.controller.readmission_backoff = Time::ms(50);
      cfg.controller.failover_replay = 64;
    }
    obs::MetricsRegistry registry;
    scenario::WgttSystem sys(cfg);
    sys.enable_metrics(registry);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    (void)sys.add_client(&drive);
    sys.start();
    sys.run_until(Time::sec(3));
    return registry.to_json();
  };
  for (std::uint64_t seed = 600; seed < 620; ++seed) {
    const std::string plain = snapshot(seed, false);
    const std::string with_knobs = snapshot(seed, true);
    ASSERT_EQ(plain, with_knobs) << "seed " << seed;
    // Liveness metrics must not even appear in a liveness-off snapshot.
    EXPECT_EQ(plain.find("controller.ap_marked_dead"), std::string::npos);
  }
}

// PR-10 satellite: same determinism contract for the multi-controller layer.
// A single-domain config that *mentions* every domain knob (fault list,
// handshake tuning, penalty window, gossip cadence) but arms none of them
// must snapshot byte-identical to a config that never heard of domains.
// 20 seeds, same probe-driven drive as the AP-liveness sweep above.
TEST(DomainDeterminism, SingleDomainKeepsSeededRunsByteIdentical) {
  auto snapshot = [](std::uint64_t seed, bool mention_idle_knobs) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = seed;
    if (mention_idle_knobs) {
      // Everything at rest: one domain, no fault script, tuning fields
      // touched but inert while num_domains == 1.
      cfg.num_domains = 1;
      cfg.controller_faults.clear();
      cfg.controller.domains.handover_timeout = Time::ms(20);
      cfg.controller.domains.handover_max_retries = 6;
      cfg.controller.domains.penalty_window = Time::ms(250);
      cfg.controller.domains.epoch_jump = 128;
      cfg.controller.domains.sync_interval = Time::ms(50);
    }
    obs::MetricsRegistry registry;
    scenario::WgttSystem sys(cfg);
    sys.enable_metrics(registry);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    (void)sys.add_client(&drive);
    sys.start();
    sys.run_until(Time::sec(3));
    return registry.to_json();
  };
  for (std::uint64_t seed = 640; seed < 660; ++seed) {
    const std::string plain = snapshot(seed, false);
    const std::string with_knobs = snapshot(seed, true);
    ASSERT_EQ(plain, with_knobs) << "seed " << seed;
    // Domain metrics must not even register in a single-domain snapshot.
    EXPECT_EQ(plain.find("domain.handovers_out"), std::string::npos);
    EXPECT_EQ(plain.find("controller.handover_requests"), std::string::npos);
  }
}

TEST(ApFailoverDeterminism, LivenessMetricsAppearOnlyWhenEnabled) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 621;
  scenario::ApFaultScript fs;
  fs.ap = 0;
  fs.crash_at = Time::sec(1);
  cfg.ap_faults.push_back(fs);
  obs::MetricsRegistry registry;
  scenario::WgttSystem sys(cfg);
  sys.enable_metrics(registry);
  mobility::StaticPosition pos({0.0, 0.0});
  (void)sys.add_client(&pos);
  sys.start();
  sys.run_until(Time::sec(2));
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("controller.ap_marked_dead"), std::string::npos);
  EXPECT_NE(json.find("controller.forced_failovers"), std::string::npos);
  EXPECT_NE(json.find("controller.heartbeat_rtt_ms"), std::string::npos);
}

// --- fuzzing ------------------------------------------------------------------

class CyclicQueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CyclicQueueFuzz, MatchesReferenceMap) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  net::PacketPool pool;
  ap::CyclicQueue q(&pool);
  std::map<std::uint16_t, std::uint64_t> reference;  // index -> packet uid
  for (int step = 0; step < 5000; ++step) {
    const auto index = static_cast<std::uint16_t>(rng.uniform_int(4096));
    if (rng.chance(0.6)) {
      net::Packet p = net::make_packet();
      q.put(index, p);
      reference[index] = p.uid;
    } else {
      const auto got = q.take(index);
      auto it = reference.find(index);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->uid, it->second);
        reference.erase(it);
      }
    }
    if (step % 512 == 0) {
      EXPECT_EQ(q.occupancy(), reference.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CyclicQueueFuzz, ::testing::Range(0, 8));

class SeqSpaceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeqSpaceProperty, SubAddRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 17);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.uniform_int(4096));
    const auto d = static_cast<std::uint16_t>(rng.uniform_int(2048));
    const auto b = mac::seq_add(a, d);
    EXPECT_EQ(mac::seq_sub(b, a), d);
    if (d != 0) {
      EXPECT_TRUE(mac::seq_less(a, b));
      EXPECT_FALSE(mac::seq_less(b, a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqSpaceProperty, ::testing::Range(0, 5));

// --- end-to-end degradation ordering -------------------------------------------

TEST(Degradation, ThroughputMonotoneInBackhaulQuality) {
  // More backhaul loss can only hurt. (Monotonicity with slack: separate
  // seeds would add noise, so the same world is reused and we allow a
  // small tolerance for stochastic MAC draws.)
  auto run_with_loss = [](double loss) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = 305;
    cfg.backhaul.loss_rate = loss;
    scenario::WgttSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    const int c = sys.add_client(&drive);
    sys.start();
    transport::UdpSink sink;
    sys.client(c).on_downlink = [&](const net::Packet& p) {
      sink.on_packet(sys.now(), p);
    };
    transport::UdpSource src(
        sys.sched(),
        [&](net::Packet p) {
          p.client = net::ClientId{0};
          sys.server_send(std::move(p));
        },
        {.rate_mbps = 20.0, .client = net::ClientId{0}});
    src.start();
    sys.run_until(Time::sec(9));
    return sink.throughput().average_mbps(Time::sec(1), Time::sec(9));
  };
  const double clean = run_with_loss(0.0);
  const double lossy = run_with_loss(0.35);
  EXPECT_GT(clean, lossy * 1.1);
}

TEST(Degradation, MultiChannelScanningCostsAreBounded) {
  // The §7 multi-channel extension: reuse > 1 must still deliver a usable
  // stream (scan dead-air and retunes degrade, not destroy).
  auto run_reuse = [](int reuse) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = 307;
    cfg.channel_reuse = reuse;
    scenario::WgttSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    const int c = sys.add_client(&drive);
    sys.start();
    transport::UdpSink sink;
    sys.client(c).on_downlink = [&](const net::Packet& p) {
      sink.on_packet(sys.now(), p);
    };
    transport::UdpSource src(
        sys.sched(),
        [&](net::Packet p) {
          p.client = net::ClientId{0};
          sys.server_send(std::move(p));
        },
        {.rate_mbps = 20.0, .client = net::ClientId{0}});
    src.start();
    sys.run_until(Time::sec(9));
    return sink.throughput().average_mbps(Time::sec(2), Time::sec(9));
  };
  const double single = run_reuse(1);
  const double multi = run_reuse(3);
  EXPECT_GT(single, 5.0);
  EXPECT_GT(multi, 2.0);  // degraded but functional
}

}  // namespace
}  // namespace wgtt
