// Backhaul cost model (DESIGN.md §10): the bandwidth/queue model and
// batching are invisible while off, and a finite-rate batched drive still
// satisfies every switching-protocol invariant.
#include <gtest/gtest.h>

#include <string>

#include "bench/harness.h"
#include "scenario/testbed.h"

namespace wgtt {
namespace {

using benchx::DriveConfig;
using benchx::DriveResult;

/// Asserts two runs of the same drive agree on everything observable.
void expect_identical(const DriveResult& a, const DriveResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.invariant_violations, 0u) << what;
  EXPECT_EQ(b.invariant_violations, 0u) << what;
  EXPECT_EQ(a.switches, b.switches) << what;
  ASSERT_EQ(a.clients.size(), b.clients.size()) << what;
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    EXPECT_EQ(a.clients[c].mbps, b.clients[c].mbps) << what << " client " << c;
    EXPECT_EQ(a.clients[c].bytes, b.clients[c].bytes) << what << " client " << c;
    EXPECT_EQ(a.clients[c].accuracy, b.clients[c].accuracy)
        << what << " client " << c;
  }
  ASSERT_NE(a.metrics, nullptr) << what;
  ASSERT_NE(b.metrics, nullptr) << what;
  EXPECT_EQ(a.metrics->to_json(), b.metrics->to_json())
      << what << ": snapshots diverged";
}

TEST(BackhaulModelTest, ModelKnobsAtRestAreInvisible) {
  // Present-but-unused knobs must not perturb a run: a config that sets the
  // queue bound and batch shape but leaves the model off (link_rate unset,
  // batching false) is the same engine.
  DriveConfig base;
  base.mph = 25.0;
  base.udp_rate_mbps = 8.0;
  base.seed = 7;
  scenario::GeometryConfig geo;
  geo.num_aps = 4;
  base.geometry = geo;
  base.collect_metrics = true;

  DriveConfig knobs = base;
  knobs.backhaul_queue_bytes = 64 * 1024;          // read only when rate > 0
  knobs.backhaul_batch_window = Time::us(250);     // read only when batching

  const DriveResult plain = benchx::run_drive(base);
  const DriveResult at_rest = benchx::run_drive(knobs);
  expect_identical(plain, at_rest, "knobs at rest");
}

TEST(BackhaulModelTest, FiniteRateBatchedDriveRunsClean) {
  // The model fully on — finite per-link rate, bounded queues, batching —
  // with headroom above the offered load: the drive must stay clean (zero
  // invariant violations, positive goodput) and the new gauges must exist
  // and read sane values.
  DriveConfig cfg;
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 8.0;
  cfg.seed = 3;
  scenario::GeometryConfig geo;
  geo.num_aps = 4;
  cfg.geometry = geo;
  cfg.collect_metrics = true;
  cfg.backhaul_link_rate_mbps = 200.0;  // ample headroom
  cfg.backhaul_batching = true;

  const DriveResult r = benchx::run_drive(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.mean_mbps(), 0.0);
  ASSERT_NE(r.metrics, nullptr);
  const double util = r.metrics->gauge("backhaul.link_utilization").value();
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
  EXPECT_EQ(r.metrics->gauge("backhaul.queue_drops").value(), 0.0)
      << "ample headroom must not tail-drop";
}

TEST(BackhaulModelTest, SaturatedLinkShedsLoadNotInvariants) {
  // Offered load well past the link rate: goodput collapses toward the pipe
  // and the queue bound sheds the excess — but the switching protocol must
  // not care (data loss is the one thing it is built to survive).
  DriveConfig cfg;
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 12.0;
  cfg.seed = 5;
  scenario::GeometryConfig geo;
  geo.num_aps = 4;
  cfg.geometry = geo;
  cfg.collect_metrics = true;
  cfg.backhaul_link_rate_mbps = 4.0;  // well below the offered 12 Mb/s
  cfg.backhaul_queue_bytes = std::size_t{64} * 1024;
  cfg.backhaul_batching = true;

  const DriveResult r = benchx::run_drive(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->gauge("backhaul.queue_drops").value(), 0.0)
      << "a 3x-oversubscribed link must tail-drop";
  EXPECT_LT(r.mean_mbps(), cfg.udp_rate_mbps * 0.8)
      << "goodput cannot approach an offered load 3x the pipe";
}

}  // namespace
}  // namespace wgtt
