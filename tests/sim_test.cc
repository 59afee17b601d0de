// Unit tests for the discrete-event scheduler and timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::ms(3), [&] { order.push_back(3); });
  s.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(2), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::ms(3));
}

TEST(SchedulerTest, SameTimeEventsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, ScheduleInIsRelative) {
  Scheduler s;
  Time fired;
  s.schedule_at(Time::ms(10), [&] {
    s.schedule_in(Time::ms(5), [&] { fired = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired, Time::ms(15));
}

TEST(SchedulerTest, PastSchedulesClampToNow) {
  Scheduler s;
  s.run_until(Time::ms(10));
  Time fired;
  s.schedule_at(Time::ms(1), [&] { fired = s.now(); });
  s.run_all();
  EXPECT_EQ(fired, Time::ms(10));
  s.schedule_in(Time::ms(-5), [&] { fired = s.now(); });
  s.run_all();
  EXPECT_EQ(fired, Time::ms(10));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(Time::ms(1), [&] { ran = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(ran);
  // Cancelling twice or cancelling unknown ids is harmless.
  s.cancel(id);
  s.cancel(EventId{999'999});
}

// Regression (ISSUE 4): the seed's cancel() recorded every id it was handed
// in a tombstone set, so cancelling an already-fired or unknown id grew
// memory forever and made pending() (heap size minus tombstones) underflow
// size_t. Generation-stamped cancellation makes those cancels true no-ops.
TEST(SchedulerTest, CancelFiredOrUnknownKeepsPendingSane) {
  Scheduler s;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 16; ++i) {
    fired_ids.push_back(s.schedule_at(Time::ms(i), [] {}));
  }
  EXPECT_EQ(s.pending(), 16u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);

  // Cancel every fired id (twice), plus a pile of ids that never existed.
  for (const EventId id : fired_ids) {
    s.cancel(id);
    s.cancel(id);
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    s.cancel(EventId{(k << 32) | 12345u});
  }
  EXPECT_EQ(s.pending(), 0u);  // the seed reported ~2^64 here

  // The scheduler still works and counts correctly afterwards.
  bool ran = false;
  const EventId live = s.schedule_in(Time::ms(1), [&] { ran = true; });
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(fired_ids[0]);  // stale id again, with a live event present
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.pending(), 0u);
  s.cancel(live);  // now fired; still a no-op
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, CancelledThenCancelledAgainDecrementsPendingOnce) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::ms(1), [] {});
  s.schedule_at(Time::ms(2), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(a);  // double-cancel must not decrement again
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
}

// A stale EventId whose slot has been recycled for a newer event must not
// cancel that newer event (the generation stamp distinguishes them).
TEST(SchedulerTest, StaleIdDoesNotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule_at(Time::ms(1), [] {});
  s.cancel(old_id);
  s.run_all();  // pops the tombstoned key, recycling the slot

  bool ran = false;
  s.schedule_at(Time::ms(2), [&] { ran = true; });  // reuses the slot
  s.cancel(old_id);  // stale: same slot, older generation
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, CancelReleasesCapturesImmediately) {
  Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id = s.schedule_at(Time::ms(1), [t = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  s.cancel(id);
  // O(1) cancel destroys the callback (and its captures) right away, not
  // when the dead heap key eventually surfaces.
  EXPECT_TRUE(watch.expired());
  s.run_all();
}

// Ordering contract, locked in across the heap rewrite: an arbitrary
// schedule/cancel interleaving fires exactly the surviving events, in
// (when, seq) order — verified against a simple reference model. Two inputs
// per seed: every op queued before one run_all(), and ops interleaved with
// run_until() pumps, where some cancels hit events that already fired and
// must be no-ops.
TEST(SchedulerTest, ChurnMatchesReferenceModel) {
  for (const bool interleaved : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Scheduler s;
      Rng rng(seed * 7919 + 3);
      struct Ref {
        Time when;
        int tag;
        bool cancelled = false;
        bool fired = false;
      };
      std::vector<Ref> model;
      std::vector<EventId> ids;
      std::vector<int> fired;
      std::vector<int> expected;
      // Reference for draining up to `limit`: every live event due by then,
      // stable-sorted by time — equal times keep schedule order.
      const auto expect_due = [&](Time limit) {
        std::vector<std::size_t> due;
        for (std::size_t k = 0; k < model.size(); ++k) {
          const Ref& r = model[k];
          if (!r.cancelled && !r.fired && r.when <= limit) due.push_back(k);
        }
        std::stable_sort(due.begin(), due.end(),
                         [&](std::size_t a, std::size_t b) {
                           return model[a].when < model[b].when;
                         });
        for (const std::size_t k : due) {
          model[k].fired = true;
          expected.push_back(model[k].tag);
        }
      };
      for (int i = 0; i < 400; ++i) {
        if (!ids.empty() && rng.chance(0.3)) {
          // Cancel a random prior event (possibly already cancelled, or —
          // interleaved — already fired).
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(static_cast<int>(ids.size())));
          s.cancel(ids[pick]);
          if (!model[pick].fired) model[pick].cancelled = true;
        } else {
          const Time when =
              s.now() +
              Time::us(static_cast<std::int64_t>(rng.uniform_int(2'000)));
          const int tag = i;
          ids.push_back(
              s.schedule_at(when, [&fired, tag] { fired.push_back(tag); }));
          model.push_back(Ref{when, tag});
        }
        if (interleaved && i % 8 == 7) {
          const Time limit = s.now() + Time::us(120);
          expect_due(limit);
          s.run_until(limit);
          ASSERT_EQ(fired, expected) << "seed " << seed << " op " << i;
        }
      }
      expect_due(Time::max());
      s.run_all();
      ASSERT_EQ(fired, expected)
          << "seed " << seed << (interleaved ? " (interleaved)" : "");
      EXPECT_EQ(s.pending(), 0u);
    }
  }
}

TEST(SchedulerTest, RunUntilStopsAtLimit) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(Time::ms(i), [&] { ++count; });
  }
  s.run_until(Time::ms(5));
  EXPECT_EQ(count, 5);  // events at exactly the limit fire
  EXPECT_EQ(s.now(), Time::ms(5));
  s.run_until(Time::ms(20));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now(), Time::ms(20));  // clock advances to the limit
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(Time::ms(1), recurse);
  };
  s.schedule_at(Time::ms(1), recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), Time::ms(5));
}

TEST(SchedulerTest, StepExecutesOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(Time::ms(1), [&] { ++count; });
  s.schedule_at(Time::ms(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Time::ms(i), [] {});
  s.run_all();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(SchedulerTest, CancelledEventsDontBlockRunUntil) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(1), [] {});
  s.cancel(id);
  bool ran = false;
  s.schedule_at(Time::ms(2), [&] { ran = true; });
  s.run_until(Time::ms(3));
  EXPECT_TRUE(ran);
}

TEST(TimerTest, FiresOnce) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  t.start(Time::ms(5));
  EXPECT_TRUE(t.armed());
  s.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RestartReplacesPending) {
  Scheduler s;
  std::vector<Time> fires;
  Timer t(s, [&] { fires.push_back(s.now()); });
  t.start(Time::ms(5));
  t.start(Time::ms(10));  // re-arm: only the second should fire
  s.run_all();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Time::ms(10));
}

TEST(TimerTest, CancelStops) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  t.start(Time::ms(5));
  t.cancel();
  s.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, PeriodicRestartFromCallback) {
  Scheduler s;
  int fires = 0;
  Timer* handle = nullptr;
  Timer t(s, [&] {
    if (++fires < 3) handle->start(Time::ms(1));
  });
  handle = &t;
  t.start(Time::ms(1));
  s.run_until(Time::ms(100));
  EXPECT_EQ(fires, 3);
}

TEST(TimerTest, DestructorCancels) {
  Scheduler s;
  int fires = 0;
  {
    Timer t(s, [&] { ++fires; });
    t.start(Time::ms(1));
  }
  s.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, CancelAfterFireIsHarmless) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  t.start(Time::ms(1));
  s.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
  // The timeout race: the event fired, then the owner cancels. Must not
  // disturb the scheduler or any later use of the timer.
  t.cancel();
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(s.pending(), 0u);
  t.start(Time::ms(1));
  s.run_all();
  EXPECT_EQ(fires, 2);
}

// The RTO/switch-ack pattern: one Timer restarted thousands of times. Each
// start() must reuse the constructed-once callback (the trampoline is tiny
// and inline), and semantics must hold across heavy restart churn.
TEST(TimerTest, HeavyRestartChurn) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  for (int round = 0; round < 1000; ++round) {
    t.start(Time::ms(5));  // restart-while-armed, 999 times
  }
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(s.pending(), 1u);  // exactly one live event despite the churn
  s.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(s.pending(), 0u);
}

// Callables bigger than InlineCallback's inline buffer fall back to a heap
// allocation but behave identically (captures destroyed on fire/cancel).
TEST(SchedulerTest, OversizedCapturesStillWork) {
  Scheduler s;
  std::array<std::uint64_t, 16> payload{};  // 128 bytes: > kInlineBytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  static_assert(!sim::InlineCallback::fits_inline<decltype([p = payload] {})>());

  std::uint64_t sum = 0;
  s.schedule_at(Time::ms(1), [p = payload, &sum] {
    for (const auto v : p) sum += v;
  });
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId big =
      s.schedule_at(Time::ms(2), [p = payload, t = std::move(token)] {});
  s.cancel(big);
  EXPECT_TRUE(watch.expired());  // heap-path cancel frees captures too
  s.run_all();
  std::uint64_t expected = 0;
  for (const auto v : payload) expected += v;
  EXPECT_EQ(sum, expected);
}

// Property: N randomly ordered schedules execute in nondecreasing time.
class SchedulerOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerOrderProperty, MonotoneExecution) {
  Scheduler s;
  Rng r(static_cast<std::uint64_t>(GetParam()) * 977 + 1);
  std::vector<Time> executed;
  for (int i = 0; i < 200; ++i) {
    const Time when = Time::us(static_cast<std::int64_t>(r.uniform_int(10'000)));
    s.schedule_at(when, [&executed, &s] { executed.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(executed.size(), 200u);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    EXPECT_LE(executed[i - 1], executed[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace wgtt::sim
