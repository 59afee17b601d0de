// Tests for the bench TrialPool: the determinism contract (results and
// merged metrics independent of --jobs), the metrics_path redirect that
// fixes the per-trial snapshot overwrite, and the bench flag parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace wgtt::benchx {
namespace {

/// Small but non-trivial drive: 3 APs, one client at 25 mph, ~4 s of
/// simulated time per trial.
DriveConfig small_config(std::uint64_t seed) {
  DriveConfig cfg;
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 10.0;
  cfg.seed = seed;
  scenario::GeometryConfig geo;
  geo.num_aps = 3;
  cfg.geometry = geo;
  return cfg;
}

std::vector<DriveResult> run_batch(int jobs, bool with_metrics) {
  TrialPool pool(TrialPool::Options{.jobs = jobs});
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    DriveConfig cfg = small_config(seed);
    cfg.collect_metrics = with_metrics;
    pool.submit(cfg);
  }
  return pool.run();
}

TEST(TrialPoolTest, ResultsIdenticalAcrossJobCounts) {
  const auto seq = run_batch(1, /*with_metrics=*/false);
  const auto par = run_batch(8, /*with_metrics=*/false);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const DriveResult& a = seq[i];
    const DriveResult& b = par[i];
    // Bit-exact, not approximate: same trial, same RNG stream, same
    // scheduler, regardless of which worker thread ran it.
    ASSERT_EQ(a.clients.size(), b.clients.size());
    for (std::size_t c = 0; c < a.clients.size(); ++c) {
      EXPECT_EQ(a.clients[c].mbps, b.clients[c].mbps);
      EXPECT_EQ(a.clients[c].accuracy, b.clients[c].accuracy);
      EXPECT_EQ(a.clients[c].bytes, b.clients[c].bytes);
      EXPECT_EQ(a.clients[c].assoc_timeline, b.clients[c].assoc_timeline);
    }
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.switch_protocol_ms, b.switch_protocol_ms);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.mpdus_delivered, b.mpdus_delivered);
    EXPECT_EQ(a.uplink_dups_dropped, b.uplink_dups_dropped);
    EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  }
}

TEST(TrialPoolTest, MergedMetricsIdenticalAcrossJobCounts) {
  TrialPool seq(TrialPool::Options{.jobs = 1});
  TrialPool par(TrialPool::Options{.jobs = 8});
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    DriveConfig cfg = small_config(seed);
    cfg.collect_metrics = true;
    seq.submit(cfg);
    par.submit(cfg);
  }
  seq.run();
  par.run();
  ASSERT_NE(seq.merged_metrics(), nullptr);
  ASSERT_NE(par.merged_metrics(), nullptr);
  // Byte-identical JSON: merge happens in submission order either way.
  EXPECT_EQ(seq.merged_metrics()->to_json(), par.merged_metrics()->to_json());
}

TEST(TrialPoolTest, MetricsPathIsRedirectedToOneMergedWrite) {
  const std::string path =
      testing::TempDir() + "/trial_pool_metrics_test.json";
  TrialPool pool;
  for (std::uint64_t seed : {31u, 32u}) {
    DriveConfig cfg = small_config(seed);
    cfg.metrics_path = path;  // pre-fix, trial 2 would clobber trial 1
    pool.submit(cfg);
  }
  pool.run();
  ASSERT_NE(pool.merged_metrics(), nullptr);
  // The merged registry holds both trials' counts, and the file holds the
  // merged snapshot, written once after the join.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), pool.merged_metrics()->to_json());
}

TEST(TrialPoolTest, ThrowingTrialRethrowsAfterOthersFinish) {
  // The documented contract: a trial that throws does not stop the others,
  // whose metrics still merge, and run() rethrows after the join.
  const auto switches = [](const obs::MetricsRegistry& m) {
    return m.find_counter("controller.switches_completed")->value();
  };
  const auto good = [](std::uint64_t seed) {
    DriveConfig cfg = small_config(seed);
    cfg.collect_metrics = true;
    return cfg;
  };
  const std::uint64_t alone =
      switches(*run_drive(good(41)).metrics) +
      switches(*run_drive(good(42)).metrics);
  ASSERT_GT(alone, 0u);
  DriveConfig bad = small_config(43);
  bad.geometry->num_aps = 0;
  for (int jobs : {1, 3}) {
    TrialPool pool(TrialPool::Options{.jobs = jobs});
    pool.submit(good(41));
    pool.submit(bad);
    pool.submit(good(42));
    EXPECT_THROW(pool.run(), std::invalid_argument) << "jobs " << jobs;
    ASSERT_NE(pool.merged_metrics(), nullptr) << "jobs " << jobs;
    EXPECT_EQ(switches(*pool.merged_metrics()), alone) << "jobs " << jobs;
  }
}

TEST(TrialPoolTest, MeanOverSeedsMatchesSequentialHelper) {
  DriveConfig cfg = small_config(1);
  const double seq = mean_mbps_over_seeds(cfg, 3);
  const double par = mean_mbps_over_seeds(cfg, 3, 8);
  EXPECT_EQ(seq, par);
}

TEST(AckTimeoutKnob, ShorterTimeoutTightensSwitchTimeTail) {
  // Satellite for the configurable control retransmission timeout: under
  // control-plane loss every lost stop/start/ack leg costs one timeout
  // round, so an 8 ms timeout must pull the switch-time tail in versus the
  // paper's 30 ms default. Averaged over seeds to wash out which switches
  // the loss happens to hit.
  auto worst_switch_ms = [](Time timeout) {
    double worst = 0.0;
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      DriveConfig cfg;
      cfg.mph = 15.0;
      cfg.udp_rate_mbps = 10.0;
      cfg.seed = seed;
      cfg.control_loss_rate = 0.25;
      cfg.ack_timeout = timeout;
      const DriveResult r = run_drive(cfg);
      for (double ms : r.switch_protocol_ms) worst = std::max(worst, ms);
      EXPECT_EQ(r.invariant_violations, 0u) << "timeout="
                                            << timeout.to_millis() << " ms";
    }
    return worst;
  };
  const double slow_tail = worst_switch_ms(Time::ms(30));
  const double fast_tail = worst_switch_ms(Time::ms(8));
  // At 25% loss some switch lost a leg, so the 30 ms config's tail carries
  // at least one full timeout round...
  EXPECT_GE(slow_tail, 30.0);
  // ...while the 8 ms config re-drives the handshake before a 30 ms round
  // would even have fired once.
  EXPECT_LT(fast_tail, slow_tail);
}

TEST(BenchOptionsTest, ParsesAndStripsFlags) {
  const char* raw[] = {"bench", "--jobs", "4", "--benchmark_format=json",
                       "--smoke", "--jobs=7"};
  std::vector<char*> argv;
  std::vector<std::string> storage(std::begin(raw), std::end(raw));
  for (auto& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(storage.size());

  const BenchOptions opts = parse_bench_options(&argc, argv.data());
  EXPECT_EQ(opts.jobs, 7);  // last flag wins
  EXPECT_TRUE(opts.smoke);
  // Only the google-benchmark flag survives for finish().
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "--benchmark_format=json");
  EXPECT_EQ(argv[2], nullptr);
}

}  // namespace
}  // namespace wgtt::benchx
