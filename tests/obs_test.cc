// Tests for the observability layer: metrics instruments, registry
// snapshots, the flight-recorder ring, span timers, and the end-to-end
// consistency of the controller's switch-time histogram against the
// tracer's per-switch record of the same protocol runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "mobility/trajectory.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_timer.h"
#include "scenario/wgtt_system.h"
#include "trace/tracer.h"
#include "transport/udp.h"
#include "util/stats.h"

namespace wgtt::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, EmptyAnswersZero) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(HistogramTest, SingleSampleExactAtEveryPercentile) {
  Histogram h(0.0, 60.0, 240);
  h.observe(17.25);
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 17.25) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 17.25);
  EXPECT_DOUBLE_EQ(h.max(), 17.25);
  EXPECT_DOUBLE_EQ(h.sum(), 17.25);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, UnderflowOverflowClampToObservedExtrema) {
  Histogram h(0.0, 10.0, 10);
  h.observe(-5.0);  // underflow
  h.observe(5.0);   // bucket
  h.observe(25.0);  // overflow
  h.observe(30.0);  // overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
  // Every percentile stays inside the observed range even though half the
  // samples fell outside [lo, hi).
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, -5.0) << "q=" << q;
    EXPECT_LE(p, 30.0) << "q=" << q;
  }
  // The top of the distribution lives in the overflow segment.
  EXPECT_GE(h.percentile(1.0), 10.0);
}

TEST(HistogramTest, UniformDistributionWithinOneBucketWidth) {
  // 1000 samples uniform over [0, 1000) with 10-wide buckets: the
  // interpolated estimate must land within one bucket width of the exact
  // order statistic.
  Histogram h(0.0, 1000.0, 100);
  std::vector<double> xs;
  xs.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>(i);
    h.observe(x);
    xs.push_back(x);
  }
  const double bucket_width = 10.0;
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(h.percentile(q), wgtt::percentile(xs, q), bucket_width)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 999.0);
  EXPECT_DOUBLE_EQ(h.mean(), 499.5);
}

TEST(RegistryTest, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry r;
  Counter& c1 = r.counter("x.count");
  c1.inc(3);
  Counter& c2 = r.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);

  Gauge& g1 = r.gauge("x.depth");
  EXPECT_EQ(&g1, &r.gauge("x.depth"));

  // First registration's bucket layout wins.
  Histogram& h1 = r.histogram("x.lat_ms", 0.0, 10.0, 10);
  Histogram& h2 = r.histogram("x.lat_ms", 0.0, 999.0, 7);
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.hi(), 10.0);
  EXPECT_EQ(h2.num_buckets(), 10u);

  EXPECT_EQ(r.find_counter("x.count"), &c1);
  EXPECT_EQ(r.find_counter("no.such"), nullptr);
  EXPECT_EQ(r.find_gauge("no.such"), nullptr);
  EXPECT_EQ(r.find_histogram("x.lat_ms"), &h1);
}

TEST(RegistryTest, SnapshotIsDeterministic) {
  // Two registries populated with the same values in different orders must
  // serialize byte-for-byte identically (std::map sorts the names).
  auto populate = [](MetricsRegistry& r, bool reversed) {
    const std::vector<std::string> counters = {"b.two", "a.one", "c.three"};
    for (std::size_t k = 0; k < counters.size(); ++k) {
      const auto& name =
          reversed ? counters[counters.size() - 1 - k] : counters[k];
      r.counter(name);
    }
    r.counter("a.one").inc(7);
    r.counter("b.two").inc(11);
    r.gauge("z.gauge").set(2.5);
    r.gauge("a.gauge").set(-4.0);
    Histogram& h = r.histogram("m.lat_ms", 0.0, 100.0, 20);
    h.observe(12.0);
    h.observe(55.5);
    h.observe(99.9);
  };
  MetricsRegistry r1;
  MetricsRegistry r2;
  populate(r1, false);
  populate(r2, true);
  const std::string j1 = r1.to_json();
  const std::string j2 = r2.to_json();
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"schema\": \"wgtt.metrics.v1\""), std::string::npos);
  EXPECT_NE(j1.find("\"a.one\": 7"), std::string::npos);
  EXPECT_NE(j1.find("\"bucket_counts\""), std::string::npos);
}

TEST(FlightRecorderTest, DropOldestStress) {
  // Record 10x the capacity: memory stays at capacity, the drop counter
  // equals the overflow exactly, and the retained window is the newest.
  constexpr std::size_t kCapacity = 1000;
  constexpr std::size_t kPushes = 10 * kCapacity;
  FlightRecorder<std::size_t> fr(kCapacity);
  EXPECT_TRUE(fr.empty());
  for (std::size_t i = 0; i < kPushes; ++i) fr.push(i);
  EXPECT_EQ(fr.capacity(), kCapacity);
  EXPECT_EQ(fr.size(), kCapacity);
  EXPECT_EQ(fr.dropped(), kPushes - kCapacity);
  EXPECT_EQ(fr.at(0), kPushes - kCapacity);  // oldest retained
  EXPECT_EQ(fr.at(kCapacity - 1), kPushes - 1);  // newest
  std::size_t visited = 0;
  std::size_t expect = kPushes - kCapacity;
  fr.for_each([&](std::size_t v) {
    EXPECT_EQ(v, expect++);
    ++visited;
  });
  EXPECT_EQ(visited, kCapacity);
  EXPECT_THROW(fr.at(kCapacity), std::out_of_range);
  fr.clear();
  EXPECT_TRUE(fr.empty());
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorderTest, ExactCapacityBoundaries) {
  // The wraparound seams: exactly full (no drop yet), one past full (first
  // drop), exactly twice around (window is precisely the second half), and
  // the degenerate capacity-1 ring.
  constexpr std::size_t kCapacity = 64;
  FlightRecorder<std::size_t> fr(kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) fr.push(i);
  EXPECT_EQ(fr.size(), kCapacity);
  EXPECT_EQ(fr.dropped(), 0u);
  EXPECT_EQ(fr.at(0), 0u);
  EXPECT_EQ(fr.at(kCapacity - 1), kCapacity - 1);

  fr.push(kCapacity);  // first overwrite
  EXPECT_EQ(fr.size(), kCapacity);
  EXPECT_EQ(fr.dropped(), 1u);
  EXPECT_EQ(fr.at(0), 1u);
  EXPECT_EQ(fr.at(kCapacity - 1), kCapacity);

  for (std::size_t i = kCapacity + 1; i < 2 * kCapacity; ++i) fr.push(i);
  EXPECT_EQ(fr.dropped(), kCapacity);
  EXPECT_EQ(fr.at(0), kCapacity);
  EXPECT_EQ(fr.at(kCapacity - 1), 2 * kCapacity - 1);
  std::size_t expect = kCapacity;
  fr.for_each([&](std::size_t v) { EXPECT_EQ(v, expect++); });
  EXPECT_EQ(expect, 2 * kCapacity);

  FlightRecorder<int> one(1);
  one.push(10);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.dropped(), 0u);
  one.push(11);
  one.push(12);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.dropped(), 2u);
  EXPECT_EQ(one.at(0), 12);
}

TEST(HistogramTest, AddBinnedMatchesObserveExactly) {
  // The same samples observed one by one, and binned by hand then added in
  // one add_binned call. -2 .. 12 reaches under- and overflow as well as
  // every bucket; 3 .. 5 keeps both extrema away from the zero the
  // histogram starts with.
  for (const auto [from, to] : {std::pair{-2.0, 12.0}, std::pair{3.0, 5.0}}) {
    Histogram observed(0.0, 10.0, 10);
    Histogram binned(0.0, 10.0, 10);
    std::vector<std::uint64_t> counts(10, 0);
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    double sum = 0.0;
    double lo = to;
    double hi = from;
    std::uint64_t state = 5;
    for (int i = 0; i < 1000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const double x =
          from + static_cast<double>(state >> 11) * 0x1.0p-53 * (to - from);
      observed.observe(x);
      if (x < 0.0) {
        ++under;
      } else if (x >= 10.0) {
        ++over;
      } else {
        ++counts[static_cast<std::size_t>(x)];
      }
      sum += x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    binned.add_binned(under, counts, over, sum, lo, hi);
    EXPECT_EQ(binned.count(), observed.count());
    EXPECT_EQ(binned.sum(), observed.sum());
    EXPECT_EQ(binned.min(), observed.min());
    EXPECT_EQ(binned.max(), observed.max());
    EXPECT_EQ(binned.underflow(), observed.underflow());
    EXPECT_EQ(binned.overflow(), observed.overflow());
    for (std::size_t b = 0; b < observed.num_buckets(); ++b) {
      EXPECT_EQ(binned.bucket_count(b), observed.bucket_count(b)) << "bucket " << b;
    }
  }
}

TEST(HistogramMergeTest, EmptySourceIsANoOp) {
  Histogram dst(0.0, 10.0, 10);
  dst.observe(2.0);
  dst.observe(7.5);
  const Histogram empty(0.0, 10.0, 10);
  dst.merge_from(empty);
  // Counts, sum and — critically — the extrema are untouched: an empty
  // source's min()/max() answer 0.0 and must not clobber real ones.
  EXPECT_EQ(dst.count(), 2u);
  EXPECT_DOUBLE_EQ(dst.sum(), 9.5);
  EXPECT_DOUBLE_EQ(dst.min(), 2.0);
  EXPECT_DOUBLE_EQ(dst.max(), 7.5);

  Histogram both_empty(0.0, 10.0, 10);
  both_empty.merge_from(empty);
  EXPECT_EQ(both_empty.count(), 0u);
  EXPECT_DOUBLE_EQ(both_empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(both_empty.max(), 0.0);
}

TEST(HistogramMergeTest, MergeIntoEmptyAdoptsSourceExtrema) {
  Histogram src(0.0, 10.0, 10);
  src.observe(-3.0);  // underflow
  src.observe(4.0);
  src.observe(42.0);  // overflow
  Histogram dst(0.0, 10.0, 10);
  dst.merge_from(src);
  EXPECT_EQ(dst.count(), 3u);
  EXPECT_EQ(dst.underflow(), 1u);
  EXPECT_EQ(dst.overflow(), 1u);
  EXPECT_DOUBLE_EQ(dst.min(), -3.0);
  EXPECT_DOUBLE_EQ(dst.max(), 42.0);
  EXPECT_DOUBLE_EQ(dst.sum(), 43.0);
}

TEST(HistogramMergeTest, MismatchedLayoutIsIgnored) {
  Histogram dst(0.0, 10.0, 10);
  dst.observe(5.0);
  Histogram wider(0.0, 20.0, 10);   // different range
  wider.observe(15.0);
  Histogram finer(0.0, 10.0, 20);   // different bucket count
  finer.observe(1.0);
  dst.merge_from(wider);
  dst.merge_from(finer);
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_DOUBLE_EQ(dst.sum(), 5.0);
  EXPECT_DOUBLE_EQ(dst.max(), 5.0);
}

TEST(RegistryMergeTest, DisjointInstrumentSetsUnion) {
  // Merging registries with disjoint (and partially overlapping) key sets:
  // missing instruments are created, overlapping counters add, gauges take
  // the source's value, disjoint histograms arrive with their own layout.
  MetricsRegistry a;
  a.counter("shared.count").inc(5);
  a.counter("only_a.count").inc(1);
  a.histogram("only_a.lat_ms", 0.0, 10.0, 10).observe(3.0);

  MetricsRegistry b;
  b.counter("shared.count").inc(7);
  b.counter("only_b.count").inc(2);
  b.gauge("only_b.depth").set(4.5);
  b.histogram("only_b.lat_ms", 0.0, 50.0, 25).observe(30.0);

  a.merge_from(b);
  EXPECT_EQ(a.find_counter("shared.count")->value(), 12u);
  EXPECT_EQ(a.find_counter("only_a.count")->value(), 1u);
  EXPECT_EQ(a.find_counter("only_b.count")->value(), 2u);
  EXPECT_DOUBLE_EQ(a.find_gauge("only_b.depth")->value(), 4.5);
  const Histogram* hb = a.find_histogram("only_b.lat_ms");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count(), 1u);
  EXPECT_DOUBLE_EQ(hb->hi(), 50.0);
  EXPECT_EQ(hb->num_buckets(), 25u);
  const Histogram* ha = a.find_histogram("only_a.lat_ms");
  ASSERT_NE(ha, nullptr);
  EXPECT_EQ(ha->count(), 1u);
}

TEST(RegistryMergeTest, EmptySourceLeavesSnapshotUnchanged) {
  MetricsRegistry a;
  a.counter("x.count").inc(3);
  a.gauge("x.depth").set(1.5);
  a.histogram("x.lat_ms", 0.0, 10.0, 10).observe(2.0);
  const std::string before = a.to_json();
  const MetricsRegistry empty;
  a.merge_from(empty);
  EXPECT_EQ(a.to_json(), before);
}

TEST(SpanTrackerTest, BeginEndCancel) {
  Histogram sink(0.0, 100.0, 100);
  SpanTracker spans(&sink);
  EXPECT_EQ(spans.open_spans(), 0u);

  spans.begin(7, Time::ms(10));
  spans.begin(8, Time::ms(12));
  EXPECT_EQ(spans.open_spans(), 2u);

  const auto ms = spans.end(7, Time::ms(27));
  ASSERT_TRUE(ms.has_value());
  EXPECT_DOUBLE_EQ(*ms, 17.0);
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_DOUBLE_EQ(sink.max(), 17.0);

  // Ending an unknown key observes nothing.
  EXPECT_FALSE(spans.end(99, Time::ms(30)).has_value());
  EXPECT_EQ(sink.count(), 1u);

  // Ending the other open span observes it.
  EXPECT_DOUBLE_EQ(spans.end(8, Time::ms(40)).value(), 28.0);
  EXPECT_EQ(spans.open_spans(), 0u);
  EXPECT_EQ(sink.count(), 2u);

  // begin() restarts an already-open span.
  spans.begin(5, Time::ms(0));
  spans.begin(5, Time::ms(50));
  EXPECT_EQ(spans.open_spans(), 1u);
  EXPECT_DOUBLE_EQ(spans.end(5, Time::ms(60)).value(), 10.0);
}

// End-to-end: drive a client through the picocell chain with BOTH the
// tracer and the metrics registry attached, then check that the
// controller's switch-time histogram tells the same story as the tracer's
// per-switch protocol-duration events.
TEST(MetricsSystemTest, SwitchTimesMatchTracerWithinOneMs) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 91;
  scenario::WgttSystem system(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(25.0));
  const int c = system.add_client(&drive);
  system.start();

  MetricsRegistry metrics;
  system.enable_metrics(metrics, Time::ms(100));
  trace::Tracer tracer;
  trace::attach(tracer, system);

  transport::UdpSource src(
      system.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        system.server_send(std::move(p));
      },
      {.rate_mbps = 12.0, .client = net::ClientId{static_cast<unsigned>(c)}});
  src.start();
  system.run_until(Time::sec(5));

  const auto switch_ms = tracer.values(trace::EventKind::kSwitchCompleted, c);
  ASSERT_GT(switch_ms.size(), 2u) << "drive produced too few switches";

  const Histogram* h = metrics.find_histogram("controller.switch_time_ms");
  ASSERT_NE(h, nullptr);
  // Every completed switch the tracer saw must be accounted for in the
  // histogram (both hook the same protocol completion).
  EXPECT_EQ(h->count(), switch_ms.size());
  const auto* completed = metrics.find_counter("controller.switches_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), switch_ms.size());

  // Percentiles from the fixed-bucket histogram agree with the exact
  // order-statistic percentiles of the tracer's samples within 1 ms
  // (bucket width is 0.25 ms).
  for (double q : {0.50, 0.90, 0.99}) {
    EXPECT_NEAR(h->percentile(q), wgtt::percentile(switch_ms, q), 1.0)
        << "q=" << q;
  }
  EXPECT_NEAR(h->sum(), std::accumulate(switch_ms.begin(), switch_ms.end(), 0.0),
              1e-6);

  // The data-path instruments saw traffic too.
  const auto* downlink = metrics.find_counter("controller.downlink_packets");
  ASSERT_NE(downlink, nullptr);
  EXPECT_GT(downlink->value(), 100u);
  const auto* ampdus = metrics.find_counter("mac.ampdus_sent");
  ASSERT_NE(ampdus, nullptr);
  EXPECT_GT(ampdus->value(), 0u);
  const Histogram* occ = metrics.find_histogram("ap.cyclic_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_GT(occ->count(), 0u);
}

// The knobs-at-rest contract (DESIGN.md §6.4-§6.6): merely HAVING the
// observability knobs in DriveConfig — profiler off, a non-default timeline
// tick with no timeline path, a postmortem directory that never triggers —
// must not change one byte of a seeded run's metrics snapshot. 20 seeds,
// each compared against a plain collect_metrics run of the same config.
TEST(KnobsAtRestTest, TwentySeedSnapshotsByteIdentical) {
  scenario::GeometryConfig geo;
  geo.num_aps = 4;  // short drive; 20 seeds x 2 runs must stay CI-friendly
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    benchx::DriveConfig base;
    base.mph = 25.0;
    base.udp_rate_mbps = 8.0;
    base.seed = seed;
    base.geometry = geo;
    base.collect_metrics = true;

    benchx::DriveConfig knobs = base;
    knobs.profile = false;                   // present, off
    knobs.timeline_tick = Time::ms(37);      // present, unused (no path)
    knobs.timeline_path.clear();
    knobs.trace_csv_path.clear();
    // A postmortem dir is armed but the run is healthy, so nothing fires;
    // arming it does attach a Tracer, which must be pure observation.
    knobs.postmortem_dir = ::testing::TempDir() + "wgtt_knobs_at_rest";

    const benchx::DriveResult plain = benchx::run_drive(base);
    const benchx::DriveResult armed = benchx::run_drive(knobs);
    ASSERT_NE(plain.metrics, nullptr);
    ASSERT_NE(armed.metrics, nullptr);
    EXPECT_EQ(armed.invariant_violations, 0u) << "seed " << seed;

    const std::string a = plain.metrics->to_json();
    const std::string b = armed.metrics->to_json();
    EXPECT_EQ(a, b) << "seed " << seed
                    << ": knobs-at-rest run diverged from the seed snapshot";
    // Wall-clock instruments must not leak in uninvited (record_perf rule).
    EXPECT_EQ(b.find("sim.profile."), std::string::npos) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wgtt::obs
