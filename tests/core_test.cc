// Tests for the controller: ESNR tracking, AP selection, the switching
// protocol driver (timeout retransmission, single-outstanding-switch), the
// downlink fan-out and the uplink de-duplication.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/esnr_tracker.h"
#include "core/penalty_timers.h"
#include "core/spatial_index.h"
#include "core/streaming_median.h"
#include "net/backhaul.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wgtt::core {
namespace {

using net::ApId;
using net::BackhaulMessage;
using net::ClientId;
using net::NodeId;

constexpr ClientId kClient{0};

TEST(EsnrTrackerTest, MedianOverWindow) {
  EsnrTracker t(Time::ms(10));
  t.add(kClient, ApId{0}, Time::ms(0), 10.0);
  t.add(kClient, ApId{0}, Time::ms(2), 30.0);
  t.add(kClient, ApId{0}, Time::ms(4), 20.0);
  // Lower median of {10,20,30} = 20.
  EXPECT_DOUBLE_EQ(t.median(kClient, ApId{0}, Time::ms(5)).value(), 20.0);
  // After 12 ms, the t=0 sample ages out: lower median of {20,30} = 20.
  EXPECT_DOUBLE_EQ(t.median(kClient, ApId{0}, Time::ms(12)).value(), 20.0);
  // After everything ages out: no value.
  EXPECT_FALSE(t.median(kClient, ApId{0}, Time::ms(50)).has_value());
}

TEST(EsnrTrackerTest, BestApIsArgmaxOfMedians) {
  EsnrTracker t(Time::ms(10));
  t.add(kClient, ApId{0}, Time::ms(1), 15.0);
  t.add(kClient, ApId{1}, Time::ms(1), 25.0);
  t.add(kClient, ApId{2}, Time::ms(1), 20.0);
  EXPECT_EQ(t.best_ap(kClient, Time::ms(2)).value(), ApId{1});
}

TEST(EsnrTrackerTest, UnknownClientHasNoBest) {
  EsnrTracker t(Time::ms(10));
  EXPECT_FALSE(t.best_ap(ClientId{9}, Time::ms(1)).has_value());
}

TEST(EsnrTrackerTest, FreshApsHonoursHorizon) {
  EsnrTracker t(Time::ms(10));
  t.add(kClient, ApId{0}, Time::ms(0), 10.0);
  t.add(kClient, ApId{1}, Time::ms(90), 10.0);
  auto fresh = t.fresh_aps(kClient, Time::ms(100), Time::ms(50));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], ApId{1});
}

TEST(EsnrTrackerTest, LastHeard) {
  EsnrTracker t(Time::ms(10));
  EXPECT_FALSE(t.last_heard(kClient, ApId{0}).has_value());
  t.add(kClient, ApId{0}, Time::ms(7), 10.0);
  EXPECT_EQ(t.last_heard(kClient, ApId{0}).value(), Time::ms(7));
}

// --- Controller fixture ------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : backhaul_(sched_, {}, Rng{3}) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      backhaul_.attach(NodeId::ap(ApId{i}),
                       [this, i](NodeId from, BackhaulMessage msg) {
                         ap_log_[i].emplace_back(from, std::move(msg));
                       });
    }
  }

  // Returned by reference: the Controller registers `this` with the
  // backhaul, so it must stay at a fixed address.
  Controller& make(Controller::Config cfg = {}) {
    controller_ = std::make_unique<Controller>(sched_, backhaul_, pool_, cfg);
    for (std::uint32_t i = 0; i < 3; ++i) controller_->add_ap(ApId{i});
    controller_->add_client(kClient);
    return *controller_;
  }

  net::CsiReport report(ApId ap, double snr_db) {
    net::CsiReport r;
    r.from_ap = ap;
    r.client = kClient;
    r.measurement.when = sched_.now();
    r.measurement.subcarrier_snr_db.fill(snr_db);
    r.measurement.rssi_dbm = -94.0 + snr_db;
    r.measurement.mean_snr_db = snr_db;
    return r;
  }

  void send_csi(ApId ap, double snr_db) {
    backhaul_.send(NodeId::ap(ap), NodeId::controller(), report(ap, snr_db));
  }

  /// Newest switch epoch observed in any stop/start the controller sent.
  /// A real AP echoes the epoch of the message it is answering; the fixture
  /// does the same by reading it off the log.
  std::uint32_t latest_epoch() const {
    std::uint32_t e = 0;
    for (const auto& [ap, log] : ap_log_) {
      for (const auto& [from, msg] : log) {
        if (const auto* stop = std::get_if<net::StopMsg>(&msg)) {
          e = std::max(e, stop->epoch);
        } else if (const auto* start = std::get_if<net::StartMsg>(&msg)) {
          e = std::max(e, start->epoch);
        }
      }
    }
    return e;
  }

  void ack_from(ApId ap) {
    backhaul_.send(NodeId::ap(ap), NodeId::controller(),
                   net::SwitchAck{kClient, ap, latest_epoch()});
  }

  /// Replaces AP i's logging handler with one that also answers heartbeat
  /// probes while *answering is true — a scriptable AP for liveness tests.
  /// `answering` must outlive the backhaul.
  void attach_heartbeat_responder(std::uint32_t i, const bool* answering) {
    backhaul_.attach(
        NodeId::ap(ApId{i}),
        [this, i, answering](NodeId from, BackhaulMessage msg) {
          if (const auto* hb = std::get_if<net::Heartbeat>(&msg)) {
            if (*answering) {
              backhaul_.send(NodeId::ap(ApId{i}), NodeId::controller(),
                             net::HeartbeatAck{ApId{i}, hb->seq});
            }
          }
          ap_log_[i].emplace_back(from, std::move(msg));
        });
  }

  template <typename T>
  int count_to_ap(std::uint32_t ap) const {
    int n = 0;
    auto it = ap_log_.find(ap);
    if (it == ap_log_.end()) return 0;
    for (const auto& [from, msg] : it->second) {
      if (std::holds_alternative<T>(msg)) ++n;
    }
    return n;
  }

  net::PacketPool pool_;  // outlives the backhaul's in-flight messages
  sim::Scheduler sched_;
  net::Backhaul backhaul_;
  std::unique_ptr<Controller> controller_;
  std::map<std::uint32_t, std::vector<std::pair<NodeId, BackhaulMessage>>> ap_log_;
};

TEST_F(ControllerTest, BootstrapsToFirstHeardAp) {
  Controller& c = make();
  send_csi(ApId{1}, 20.0);
  sched_.run_until(Time::ms(5));
  // Bootstrap sends a StartMsg directly to the best AP.
  EXPECT_EQ(count_to_ap<net::StartMsg>(1), 1);
  ack_from(ApId{1});
  sched_.run_until(Time::ms(10));
  EXPECT_EQ(c.serving_ap(kClient).value(), ApId{1});
}

TEST_F(ControllerTest, SwitchesToBetterApViaStop) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(50));  // hysteresis expires
  // AP1 is clearly better, and the serving AP has fresh in-window CSI.
  send_csi(ApId{0}, 15.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(55));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 1);
  // The stop names the new AP; completion comes from the new AP's ack.
  ack_from(ApId{1});
  sched_.run_until(Time::ms(60));
  EXPECT_EQ(c.serving_ap(kClient).value(), ApId{1});
  ASSERT_EQ(c.switch_log().size(), 2u);  // bootstrap + 1 switch
  EXPECT_EQ(c.switch_log()[1].from, ApId{0});
  EXPECT_EQ(c.switch_log()[1].to, ApId{1});
}

TEST_F(ControllerTest, HysteresisBlocksRapidSwitches) {
  Controller::Config cfg;
  cfg.switch_hysteresis = Time::ms(500);
  Controller& c = make(cfg);
  (void)c;
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(10));
  // Better AP appears immediately, but hysteresis must hold it back.
  send_csi(ApId{0}, 15.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 0);
}

TEST_F(ControllerTest, SilentServingJudgedByLastKnownValue) {
  Controller::Config cfg;
  cfg.serving_stale_timeout = Time::ms(100);
  Controller& c = make(cfg);
  (void)c;
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(60));
  // Serving AP briefly silent; a WEAKER challenger reports. The controller
  // must not trade a known-20 dB AP for a 15 dB one just because the good
  // one was quiet for a beat (first-report-wins guard).
  send_csi(ApId{1}, 15.0);
  sched_.run_until(Time::ms(70));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 0);
  // A clearly BETTER challenger during the same silence does win. (Sent
  // after the 10 ms window has flushed the 15 dB sample, so the challenger
  // median is unambiguously 30 dB.)
  sched_.run_until(Time::ms(85));
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(95));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 1);
}

TEST_F(ControllerTest, StaleServingAbandonedUnconditionally) {
  Controller::Config cfg;
  cfg.serving_stale_timeout = Time::ms(100);
  Controller& c = make(cfg);
  (void)c;
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  // Serving AP silent far beyond the stale timeout: even a weaker
  // challenger takes over (the serving AP is presumed out of range).
  sched_.run_until(Time::ms(250));
  send_csi(ApId{1}, 12.0);
  sched_.run_until(Time::ms(260));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 1);
}

TEST_F(ControllerTest, StopRetransmittedAfterAckTimeout) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(50));
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(55));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 1);
  // No ack arrives: 30 ms later the stop is retransmitted (paper §3.1.2).
  sched_.run_until(Time::ms(90));
  EXPECT_GE(count_to_ap<net::StopMsg>(0), 2);
  EXPECT_GE(c.stats().stop_retransmissions, 1u);
  // Ack finally arrives; retransmissions cease.
  ack_from(ApId{1});
  sched_.run_until(Time::ms(95));
  const int total = count_to_ap<net::StopMsg>(0);
  sched_.run_until(Time::ms(400));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), total);
  // Every retransmission repeats the first stop: same new AP, same epoch.
  std::vector<net::StopMsg> stops;
  for (const auto& [from, msg] : ap_log_.at(0)) {
    if (const auto* s = std::get_if<net::StopMsg>(&msg)) stops.push_back(*s);
  }
  ASSERT_GE(stops.size(), 2u);
  for (const net::StopMsg& s : stops) {
    EXPECT_EQ(s.new_ap, ApId{1});
    EXPECT_EQ(s.epoch, stops.front().epoch);
  }
}

TEST_F(ControllerTest, SingleOutstandingSwitch) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(50));
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(52));
  // While the switch to AP1 is unacked, an even better AP2 appears: the
  // controller must NOT issue a second switch (§3.1.2 footnote 2).
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{2}, 40.0);
  sched_.run_until(Time::ms(60));
  EXPECT_EQ(count_to_ap<net::StopMsg>(0), 1);
  EXPECT_EQ(c.stats().switches_initiated, 2u);  // bootstrap + one switch
}

TEST_F(ControllerTest, DownlinkFanoutToFreshAps) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  send_csi(ApId{1}, 22.0);
  sched_.run_until(Time::ms(5));
  net::Packet p = net::make_packet();
  p.client = kClient;
  p.payload_bytes = 1000;
  c.send_downlink(p);
  sched_.run_until(Time::ms(10));
  EXPECT_EQ(count_to_ap<net::DownlinkData>(0), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(1), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(2), 0);  // AP2 never heard the client
}

TEST_F(ControllerTest, DownlinkFallsBackToAllAps) {
  Controller& c = make();
  net::Packet p = net::make_packet();
  p.client = kClient;
  c.send_downlink(p);  // no CSI at all yet
  sched_.run_until(Time::ms(5));
  EXPECT_EQ(count_to_ap<net::DownlinkData>(0), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(1), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(2), 1);
}

TEST_F(ControllerTest, IndexNumbersIncrementPerClientModulo4096) {
  Controller& c = make();
  std::vector<std::uint16_t> indices;
  backhaul_.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<net::DownlinkData>(&msg)) {
      indices.push_back(d->index);
    }
  });
  for (int i = 0; i < 3; ++i) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    c.send_downlink(p);
  }
  sched_.run_until(Time::ms(5));
  ASSERT_EQ(indices.size(), 3u);
  EXPECT_EQ(indices[0], 0);
  EXPECT_EQ(indices[1], 1);
  EXPECT_EQ(indices[2], 2);
}

TEST_F(ControllerTest, UplinkDeduplication) {
  Controller& c = make();
  int delivered = 0;
  c.on_uplink = [&](const net::Packet&) { ++delivered; };
  net::Packet p = net::make_packet();
  p.client = kClient;
  p.ip_id = 42;
  // Three APs forward the same uplink packet (same client, same IP-ID).
  for (std::uint32_t i = 0; i < 3; ++i) {
    backhaul_.send(NodeId::ap(ApId{i}), NodeId::controller(),
                   net::UplinkData{ApId{i}, p});
  }
  sched_.run_until(Time::ms(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(c.stats().uplink_duplicates_dropped, 2u);
  // A different IP-ID passes.
  p.ip_id = 43;
  backhaul_.send(NodeId::ap(ApId{0}), NodeId::controller(),
                 net::UplinkData{ApId{0}, p});
  sched_.run_until(Time::ms(10));
  EXPECT_EQ(delivered, 2);
}

TEST_F(ControllerTest, DedupSetIsBounded) {
  Controller::Config cfg;
  cfg.dedup_capacity = 8;
  Controller& c = make(cfg);
  int delivered = 0;
  c.on_uplink = [&](const net::Packet&) { ++delivered; };
  // Push 20 distinct keys through a capacity-8 set; all pass.
  for (std::uint16_t i = 0; i < 20; ++i) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    p.ip_id = i;
    backhaul_.send(NodeId::ap(ApId{0}), NodeId::controller(),
                   net::UplinkData{ApId{0}, p});
  }
  sched_.run_until(Time::ms(5));
  EXPECT_EQ(delivered, 20);
  // An early key has been evicted: its duplicate now passes (bounded memory
  // trades exactness at horizon edges).
  net::Packet p = net::make_packet();
  p.client = kClient;
  p.ip_id = 0;
  backhaul_.send(NodeId::ap(ApId{0}), NodeId::controller(),
                 net::UplinkData{ApId{0}, p});
  sched_.run_until(Time::ms(10));
  EXPECT_EQ(delivered, 21);
}

TEST_F(ControllerTest, AckWithStaleEpochIgnored) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});  // bootstrap complete: epoch 1
  sched_.run_until(Time::ms(50));
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(55));  // switch to AP1 pending: epoch 2
  ASSERT_EQ(count_to_ap<net::StopMsg>(0), 1);
  // A duplicate of the bootstrap's ack (epoch 1) resurfaces from a
  // retransmit chain. Pre-fix the controller matched on from_ap alone and
  // an ack from the right AP with the wrong epoch completed the switch.
  backhaul_.send(NodeId::ap(ApId{1}), NodeId::controller(),
                 net::SwitchAck{kClient, ApId{1}, 1});
  sched_.run_until(Time::ms(60));
  EXPECT_EQ(c.serving_ap(kClient).value(), ApId{0});  // still pending
  EXPECT_GE(c.stats().stale_acks_ignored, 1u);
  EXPECT_EQ(c.stats().switches_completed, 1u);
  // The ack with the correct epoch completes it.
  ack_from(ApId{1});
  sched_.run_until(Time::ms(65));
  EXPECT_EQ(c.serving_ap(kClient).value(), ApId{1});
  EXPECT_EQ(c.stats().switches_completed, 2u);
}

TEST_F(ControllerTest, AckFromWrongApIgnored) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(50));
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(55));
  // Right epoch, wrong AP: must not complete the switch to AP1.
  backhaul_.send(NodeId::ap(ApId{2}), NodeId::controller(),
                 net::SwitchAck{kClient, ApId{2}, latest_epoch()});
  sched_.run_until(Time::ms(60));
  EXPECT_EQ(c.serving_ap(kClient).value(), ApId{0});
  EXPECT_GE(c.stats().stale_acks_ignored, 1u);
}

TEST_F(ControllerTest, BootstrapRetransmitKeepsOriginalIndex) {
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  ASSERT_EQ(count_to_ap<net::StartMsg>(0), 1);
  // The bootstrap start is lost (no ack). Meanwhile downlink traffic keeps
  // advancing next_index. Pre-fix, the 30 ms retransmit resent the LIVE
  // next_index, silently skipping everything fanned out in between.
  for (int i = 0; i < 7; ++i) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    c.send_downlink(p);
  }
  sched_.run_until(Time::ms(40));
  ASSERT_GE(count_to_ap<net::StartMsg>(0), 2);
  std::vector<std::uint16_t> start_indices;
  for (const auto& [from, msg] : ap_log_.at(0)) {
    if (const auto* s = std::get_if<net::StartMsg>(&msg)) {
      start_indices.push_back(s->first_unsent_index);
    }
  }
  ASSERT_GE(start_indices.size(), 2u);
  for (std::uint16_t idx : start_indices) {
    EXPECT_EQ(idx, start_indices.front());
  }
  // And all retransmits carry the same epoch: one bootstrap, one epoch.
  std::vector<std::uint32_t> epochs;
  for (const auto& [from, msg] : ap_log_.at(0)) {
    if (const auto* s = std::get_if<net::StartMsg>(&msg)) epochs.push_back(s->epoch);
  }
  for (std::uint32_t e : epochs) EXPECT_EQ(e, epochs.front());
}

TEST_F(ControllerTest, EpochIncreasesAcrossSwitches) {
  Controller& c = make();
  (void)c;
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  const std::uint32_t bootstrap_epoch = latest_epoch();
  EXPECT_GE(bootstrap_epoch, 1u);
  ack_from(ApId{0});
  sched_.run_until(Time::ms(50));
  send_csi(ApId{0}, 10.0);
  send_csi(ApId{1}, 30.0);
  sched_.run_until(Time::ms(55));
  EXPECT_GT(latest_epoch(), bootstrap_epoch);
}

TEST_F(ControllerTest, IndexNumbersWrapAt4096) {
  // m = 12 bits: the per-client index must wrap cleanly (the cyclic queues
  // and the shared 802.11 sequence space both rely on modular continuity).
  Controller& c = make();
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(2));
  std::vector<std::uint16_t> indices;
  backhaul_.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<net::DownlinkData>(&msg)) {
      indices.push_back(d->index);
    }
  });
  for (int i = 0; i < 5000; ++i) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    c.send_downlink(p);
  }
  sched_.run_until(Time::sec(2));
  ASSERT_EQ(indices.size(), 5000u);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], static_cast<std::uint16_t>(i & 0x0fff));
  }
}

// --- AP liveness state machine (DESIGN.md §7) -------------------------------

TEST_F(ControllerTest, LivenessStateMachineWithExponentialReadmission) {
  Controller::Config cfg;
  cfg.liveness_enabled = true;
  cfg.heartbeat_interval = Time::ms(10);
  cfg.heartbeat_miss_threshold = 2;
  cfg.readmission_backoff = Time::ms(40);
  cfg.readmission_backoff_max = Time::ms(400);
  Controller& c = make(cfg);
  bool answers[3] = {true, true, true};
  for (std::uint32_t i = 0; i < 3; ++i) attach_heartbeat_responder(i, &answers[i]);

  // Ticks land at 10, 20, 30, ... ms. A probe sent at tick N is judged at
  // tick N+1, so after the silence begins at 15 ms the first miss accrues
  // at tick 30 (probe@20 unanswered) and the second at tick 40.
  sched_.run_until(Time::ms(15));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kAlive);
  answers[2] = false;  // AP2 goes silent before its first answered probe ages
  sched_.run_until(Time::ms(35));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kSuspect);
  EXPECT_EQ(c.ap_health(ApId{0}).state, Controller::ApLiveness::kAlive);
  sched_.run_until(Time::ms(45));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kDead);
  EXPECT_EQ(c.stats().aps_marked_suspect, 1u);
  EXPECT_EQ(c.stats().aps_marked_dead, 1u);

  // Back from the dead at 45 ms: the probe@50 answer flips Dead ->
  // Recovering (~50 ms), and readmission waits out the 40 ms backoff —
  // the first tick past 90 ms, i.e. tick 100.
  answers[2] = true;
  sched_.run_until(Time::ms(55));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kRecovering);
  sched_.run_until(Time::ms(85));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kRecovering);
  sched_.run_until(Time::ms(105));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kAlive);
  EXPECT_EQ(c.stats().aps_readmitted, 1u);

  // Second death doubles the backoff to 80 ms: silent from 105 ms -> Dead
  // at tick 130; answering again from 135 ms -> Recovering at ~140 ms.
  // With the un-doubled 40 ms backoff it would readmit at tick 190, so
  // still being Recovering at 215 ms proves the doubling.
  answers[2] = false;
  sched_.run_until(Time::ms(135));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kDead);
  answers[2] = true;
  sched_.run_until(Time::ms(145));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kRecovering);
  sched_.run_until(Time::ms(215));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kRecovering)
      << "flap damping did not double the readmission backoff";
  sched_.run_until(Time::ms(235));
  EXPECT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kAlive);
  EXPECT_EQ(c.stats().aps_readmitted, 2u);
  EXPECT_GT(c.stats().heartbeats_sent, 0u);
  EXPECT_GT(c.stats().heartbeat_acks, 0u);
}

TEST_F(ControllerTest, DeadApEvictedFromSelectionAndFanout) {
  Controller::Config cfg;
  cfg.liveness_enabled = true;
  cfg.heartbeat_interval = Time::ms(10);
  cfg.heartbeat_miss_threshold = 2;
  cfg.selection_window = Time::ms(500);
  Controller& c = make(cfg);
  bool answers[3] = {true, true, false};  // AP2 never answers: dead by 30 ms
  for (std::uint32_t i = 0; i < 3; ++i) attach_heartbeat_responder(i, &answers[i]);
  sched_.run_until(Time::ms(35));
  ASSERT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kDead);

  // AP2 has by far the best ESNR, but a Dead AP must never win the argmax:
  // the bootstrap goes to the live runner-up.
  send_csi(ApId{2}, 30.0);
  send_csi(ApId{1}, 10.0);
  sched_.run_until(Time::ms(45));
  EXPECT_EQ(count_to_ap<net::StartMsg>(2), 0);
  EXPECT_EQ(count_to_ap<net::StartMsg>(1), 1);
  ack_from(ApId{1});
  sched_.run_until(Time::ms(50));
  ASSERT_EQ(c.serving_ap(kClient).value(), ApId{1});

  // Both AP1 and AP2 heard the client recently (fresh CSI), but the dead
  // AP is erased from the downlink fan-out.
  net::Packet p = net::make_packet();
  p.client = kClient;
  c.send_downlink(p);
  sched_.run_until(Time::ms(55));
  EXPECT_EQ(count_to_ap<net::DownlinkData>(1), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(2), 0);
}

TEST_F(ControllerTest, ServingApDeathForcesFailoverFromWatermark) {
  Controller::Config cfg;
  cfg.liveness_enabled = true;
  cfg.heartbeat_interval = Time::ms(10);
  cfg.heartbeat_miss_threshold = 2;
  cfg.selection_window = Time::ms(500);
  Controller& c = make(cfg);
  bool answers[3] = {true, true, true};
  for (std::uint32_t i = 0; i < 3; ++i) attach_heartbeat_responder(i, &answers[i]);

  // Bootstrap onto AP0 (best CSI), with AP1 as the in-window fallback.
  send_csi(ApId{0}, 30.0);
  send_csi(ApId{1}, 20.0);
  sched_.run_until(Time::ms(2));
  ack_from(ApId{0});
  sched_.run_until(Time::ms(5));
  ASSERT_EQ(c.serving_ap(kClient).value(), ApId{0});
  const std::uint32_t epoch_before = latest_epoch();

  // 100 downlink packets establish the controller-side watermark.
  for (int i = 0; i < 100; ++i) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    c.send_downlink(p);
  }
  sched_.run_until(Time::ms(15));

  // The serving AP dies. The controller cannot run stop -> start through a
  // corpse: it must mint a new epoch and bootstrap AP1 from its own
  // watermark, rewound by failover_replay (100 sent, default replay 32).
  const std::size_t ap1_log_at_death = ap_log_[1].size();
  answers[0] = false;
  sched_.run_until(Time::ms(55));
  EXPECT_EQ(c.ap_health(ApId{0}).state, Controller::ApLiveness::kDead);
  EXPECT_EQ(c.stats().forced_failovers, 1u);
  const net::StartMsg* forced = nullptr;
  for (const auto& [from, msg] : ap_log_[1]) {
    if (const auto* s = std::get_if<net::StartMsg>(&msg)) forced = s;
  }
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->first_unsent_index, (100 - 32) & 0x0fff);
  EXPECT_EQ(forced->epoch, epoch_before + 1);

  // Unacked forced starts ride the same retransmission chain as a normal
  // switch.
  const int starts_before_retx = count_to_ap<net::StartMsg>(1);
  sched_.run_until(Time::ms(95));
  EXPECT_GT(count_to_ap<net::StartMsg>(1), starts_before_retx);
  // Every start to AP1 since the death, retransmissions included, carries
  // the rewound watermark and the failover's epoch.
  int starts_since_death = 0;
  for (std::size_t k = ap1_log_at_death; k < ap_log_[1].size(); ++k) {
    if (const auto* s = std::get_if<net::StartMsg>(&ap_log_[1][k].second)) {
      ++starts_since_death;
      EXPECT_EQ(s->first_unsent_index, (100 - 32) & 0x0fff);
      EXPECT_EQ(s->epoch, epoch_before + 1);
    }
  }
  EXPECT_GE(starts_since_death, 2);
  ack_from(ApId{1});
  sched_.run_until(Time::ms(100));
  ASSERT_EQ(c.serving_ap(kClient).value(), ApId{1});

  // The dead AP comes back. It might be a zombie that still believes it
  // serves the client, so readmission sends a quench stop carrying the
  // client's CURRENT epoch.
  answers[0] = true;
  sched_.run_until(Time::ms(400));
  EXPECT_EQ(c.ap_health(ApId{0}).state, Controller::ApLiveness::kAlive);
  EXPECT_EQ(c.stats().quench_stops, 1u);
  const net::StopMsg* quench = nullptr;
  for (const auto& [from, msg] : ap_log_[0]) {
    if (const auto* s = std::get_if<net::StopMsg>(&msg)) quench = s;
  }
  ASSERT_NE(quench, nullptr);
  EXPECT_EQ(quench->epoch, epoch_before + 1);
}

// --- SpatialIndex: must be byte-identical to the brute-force scans ----------

TEST(SpatialIndexTest, NearestAndNeighborsMatchBruteForce) {
  // 20 random layouts (coarse quarter-metre grid, so exact duplicates and
  // midpoint ties occur) x 50 queries each, checked against the ascending
  // strict-< scans the index replaces.
  std::uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const int num_aps = 1 + static_cast<int>(next() % 40);
    std::vector<double> xs;
    for (int i = 0; i < num_aps; ++i) {
      xs.push_back(static_cast<double>(next() % 2000) / 4.0);
    }
    SpatialIndex idx;
    idx.build(xs, 30.0);
    ASSERT_EQ(idx.num_aps(), num_aps);
    for (int q = 0; q < 50; ++q) {
      // Queries land on, between and well outside the array.
      const double x = static_cast<double>(next() % 2400) / 4.0 - 50.0;
      int brute_best = -1;
      double brute_d = std::numeric_limits<double>::infinity();
      for (int i = 0; i < num_aps; ++i) {
        const double d = std::abs(xs[static_cast<std::size_t>(i)] - x);
        if (d < brute_d) {
          brute_d = d;
          brute_best = i;
        }
      }
      ASSERT_EQ(idx.nearest(x), brute_best)
          << "trial " << trial << " query x=" << x;
      const double r = static_cast<double>(next() % 400) / 4.0;
      std::vector<int> brute;
      for (int i = 0; i < num_aps; ++i) {
        if (std::abs(xs[static_cast<std::size_t>(i)] - x) <= r) {
          brute.push_back(i);
        }
      }
      ASSERT_EQ(idx.neighbors(x, r), brute)
          << "trial " << trial << " query x=" << x << " r=" << r;
    }
  }
}

TEST(SpatialIndexTest, NearestTieGoesToLowestApIndex) {
  SpatialIndex idx;
  idx.build({10.0, 20.0, 20.0, 30.0}, 30.0);
  EXPECT_EQ(idx.nearest(15.0), 0);  // midpoint between AP0 and AP1
  EXPECT_EQ(idx.nearest(20.0), 1);  // co-located AP1 / AP2
  EXPECT_EQ(idx.nearest(25.0), 1);  // 5 m from AP1, AP2 and AP3 alike
}

TEST(SpatialIndexTest, SegmentsClampAndCoverEveryAp) {
  SpatialIndex idx;
  idx.build({0.0, 35.0, 70.0}, 30.0);
  ASSERT_GE(idx.num_segments(), 1);
  // Off-array positions land in the edge segments, never out of range.
  EXPECT_EQ(idx.segment_of(-1e6), 0);
  EXPECT_EQ(idx.segment_of(1e6), idx.num_segments() - 1);
  for (int i = 0; i < idx.num_aps(); ++i) {
    EXPECT_EQ(idx.segment_of(idx.ap_x(i)), idx.segment_of_ap(i)) << "ap " << i;
    EXPECT_GE(idx.segment_of_ap(i), 0);
    EXPECT_LT(idx.segment_of_ap(i), idx.num_segments());
  }
  // Segment assignment is monotone in x.
  EXPECT_LE(idx.segment_of_ap(0), idx.segment_of_ap(1));
  EXPECT_LE(idx.segment_of_ap(1), idx.segment_of_ap(2));
  EXPECT_TRUE(SpatialIndex{}.empty());
  EXPECT_EQ(SpatialIndex{}.nearest(0.0), -1);
}

// --- Uplink de-dup capacity boundary (the PR 7 off-by-one fix) --------------

TEST_F(ControllerTest, DedupCapacityBoundary) {
  Controller::Config cfg;
  cfg.dedup_capacity = 4;
  Controller& c = make(cfg);
  int delivered = 0;
  c.on_uplink = [&](const net::Packet&) { ++delivered; };
  Time t = Time::zero();
  auto send = [&](std::uint16_t ip_id) {
    net::Packet p = net::make_packet();
    p.client = kClient;
    p.ip_id = ip_id;
    backhaul_.send(NodeId::ap(ApId{0}), NodeId::controller(),
                   net::UplinkData{ApId{0}, p});
    t += Time::ms(5);
    sched_.run_until(t);  // serialize: eviction order must be send order
  };
  // Fill to exactly capacity.
  for (std::uint16_t i = 0; i < 4; ++i) send(i);
  EXPECT_EQ(delivered, 4);
  // At exactly capacity the oldest key must STILL be present: a duplicate
  // of key 0 is dropped. Pre-fix the `size > capacity` check let the table
  // grow to capacity + 1 keys; the fix must not overshoot either (evicting
  // down to capacity - 1 would let this duplicate through).
  send(0);
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(c.stats().uplink_duplicates_dropped, 1u);
  // The (capacity + 1)-th DISTINCT key evicts exactly the oldest key...
  send(4);
  EXPECT_EQ(delivered, 5);
  send(0);  // ...so key 0 passes again (and re-enters, evicting key 1),
  EXPECT_EQ(delivered, 6);
  send(2);  // while a key still inside the FIFO stays suppressed.
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(c.stats().uplink_duplicates_dropped, 2u);
}

// --- Empty-fan-out drops: counted, traced, optionally bounded ---------------

TEST_F(ControllerTest, EmptyFanoutDropIsCountedAndAnnounced) {
  Controller::Config cfg;
  cfg.liveness_enabled = true;  // defaults: 25 ms probes, 3 misses -> Dead
  Controller& c = make(cfg);
  // Nobody answers heartbeats (the fixture's default handlers only log), so
  // every AP accrues its third miss at tick 100 ms.
  sched_.run_until(Time::ms(110));
  ASSERT_EQ(c.ap_health(ApId{0}).state, Controller::ApLiveness::kDead);
  ASSERT_EQ(c.ap_health(ApId{1}).state, Controller::ApLiveness::kDead);
  ASSERT_EQ(c.ap_health(ApId{2}).state, Controller::ApLiveness::kDead);

  std::vector<net::ClientId> announced;
  c.on_fanout_empty = [&](net::ClientId client, Time) {
    announced.push_back(client);
  };
  net::Packet p = net::make_packet();
  p.client = kClient;
  c.send_downlink(p);
  sched_.run_until(Time::ms(120));
  // Pre-fix the packet vanished without a trace; now the drop is counted
  // and the observation hook fires.
  EXPECT_EQ(c.stats().fanout_empty_drops, 1u);
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_EQ(announced[0], kClient);
  EXPECT_EQ(c.stats().downlink_packets, 1u);
  EXPECT_EQ(c.stats().downlink_fanout_copies, 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(count_to_ap<net::DownlinkData>(i), 0) << "ap " << i;
  }
}

TEST_F(ControllerTest, BoundedFallbackFansOutToSpatialNeighborhood) {
  Controller::Config cfg;
  cfg.bounded_fallback = true;
  Controller& c = make(cfg);
  SpatialIndex idx;
  idx.build({0.0, 60.0, 1000.0}, 30.0);
  c.set_spatial(&idx, 100.0);
  // One CSI report anchors the client at AP0; then 300 ms of silence ages
  // it out of the 200 ms fan-out freshness horizon.
  send_csi(ApId{0}, 20.0);
  sched_.run_until(Time::ms(300));
  net::Packet p = net::make_packet();
  p.client = kClient;
  c.send_downlink(p);
  sched_.run_until(Time::ms(305));
  // The stale fallback used to broadcast to the whole deployment; bounded,
  // it stays within 100 m of the anchor — APs 0 and 1, never the far AP2.
  EXPECT_EQ(count_to_ap<net::DownlinkData>(0), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(1), 1);
  EXPECT_EQ(count_to_ap<net::DownlinkData>(2), 0);
  EXPECT_EQ(c.stats().fanout_empty_drops, 0u);
  // A client that has never reported CSI has no anchor: the fallback stays
  // the full AP set (cold start must reach everyone).
  const ClientId other{1};
  c.add_client(other);
  net::Packet q = net::make_packet();
  q.client = other;
  c.send_downlink(q);
  sched_.run_until(Time::ms(310));
  EXPECT_EQ(count_to_ap<net::DownlinkData>(2), 1);
}

// --- StreamingMedian: must be bit-identical to the sort-based formula -------

TEST(StreamingMedianTest, AgreesWithSortedLowerMedianUnderEviction) {
  // Random stream with random inter-arrival gaps, checked sample by sample
  // against util::lower_median over a reference window. The 10 ms window
  // holds ~25 live samples; the 1 s window holds ~2,500, above the largest
  // live count measured in any drive (578, at W = 1 s; DESIGN.md §8).
  for (const Time window : {Time::ms(10), Time::sec(1)}) {
    StreamingMedian sm(window);
    std::deque<std::pair<Time, double>> ref;

    std::uint64_t state = 12345;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };

    Time now = Time::zero();
    for (int i = 0; i < 5000; ++i) {
      now += Time::us(static_cast<std::int64_t>(next() % 800));  // 0-0.8 ms
      // Coarse values force many exact duplicates.
      const double v = static_cast<double>(next() % 64) / 4.0;
      sm.add(now, v);
      ref.emplace_back(now, v);
      while (!ref.empty() && ref.front().first <= now - window) ref.pop_front();

      std::vector<double> xs;
      for (const auto& [w, x] : ref) xs.push_back(x);
      ASSERT_EQ(sm.size(), xs.size());
      ASSERT_TRUE(sm.lower_median(now).has_value());
      // Bit-identical, not approximately equal: both pick the same order
      // statistic of the same multiset.
      ASSERT_EQ(sm.lower_median(now).value(), lower_median(xs))
          << "window " << window.to_millis() << " ms, sample " << i;
    }
  }
}

TEST(StreamingMedianTest, SingleSampleWindow) {
  // Samples spaced wider than the window: every add expires its
  // predecessor, so the median is always the newest value (W=1 behaviour).
  StreamingMedian sm(Time::ms(1));
  for (int i = 0; i < 100; ++i) {
    const Time t = Time::ms(2 * i);
    sm.add(t, static_cast<double>(i));
    EXPECT_EQ(sm.size(), 1u);
    EXPECT_EQ(sm.lower_median(t).value(), static_cast<double>(i));
  }
}

TEST(StreamingMedianTest, EmptyWindowReturnsNullopt) {
  StreamingMedian sm(Time::ms(10));
  EXPECT_FALSE(sm.lower_median(Time::zero()).has_value());
  sm.add(Time::ms(0), 5.0);
  EXPECT_TRUE(sm.lower_median(Time::ms(5)).has_value());
  // Whole window ages out; the structure must drain and report empty...
  EXPECT_FALSE(sm.lower_median(Time::ms(50)).has_value());
  EXPECT_TRUE(sm.empty());
  // ...and keep working after the drain.
  sm.add(Time::ms(60), 7.0);
  EXPECT_EQ(sm.lower_median(Time::ms(60)).value(), 7.0);
}

TEST(StreamingMedianTest, ClearResets) {
  StreamingMedian sm(Time::ms(10));
  sm.add(Time::ms(0), 1.0);
  sm.add(Time::ms(1), 2.0);
  sm.clear();
  EXPECT_TRUE(sm.empty());
  EXPECT_FALSE(sm.lower_median(Time::ms(1)).has_value());
  sm.add(Time::ms(2), 9.0);
  EXPECT_EQ(sm.lower_median(Time::ms(2)).value(), 9.0);
}

// --- penalty timers (DESIGN.md §12: boundary flap damping) --------------------

TEST(PenaltyTimerTest, TickExactArmingAndExpiry) {
  PenaltyTimers pt;
  const net::ClientId c{7};
  pt.arm(c, 1, Time::ms(500));
  EXPECT_TRUE(pt.barred(c, 1, Time::ms(499)));
  // The bar is half-open: expired exactly at `until`.
  EXPECT_FALSE(pt.barred(c, 1, Time::ms(500)));
  // Other (client, domain) pairs are independent.
  EXPECT_FALSE(pt.barred(c, 2, Time::ms(0)));
  EXPECT_FALSE(pt.barred(net::ClientId{8}, 1, Time::ms(0)));
  // Re-arming extends but never shortens.
  pt.arm(c, 1, Time::ms(800));
  pt.arm(c, 1, Time::ms(600));
  EXPECT_TRUE(pt.barred(c, 1, Time::ms(799)));
  EXPECT_FALSE(pt.barred(c, 1, Time::ms(800)));
}

TEST(PenaltyTimerTest, OscillationPassesOncePerWindow) {
  // The controller's damping discipline, distilled: every time the argmax
  // flips toward the neighbor domain it consults the timer, and every
  // handover attempt (landed or aborted) re-arms it for one penalty window.
  // A client oscillating across the boundary — attempts every W/10 — must
  // get through at most once per window, tick-exactly.
  PenaltyTimers pt;
  const net::ClientId c{3};
  const Time window = Time::ms(500);
  int passes = 0;
  for (int i = 0; i < 100; ++i) {
    const Time now = Time::ms(50 * i);  // attempts every window/10
    if (!pt.barred(c, 1, now)) {
      ++passes;
      pt.arm(c, 1, now + window);
    }
  }
  // 100 attempts spanning [0, 5000 ms): exactly one pass per 500 ms window,
  // the first at t=0 and then each tick-exact expiry instant.
  EXPECT_EQ(passes, 10);
}

}  // namespace
}  // namespace wgtt::core
