// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/sinks.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "stats/metrics.hpp"
#include "util/error.hpp"

namespace bbsim::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockMatchesEventTimeInsideHandler) {
  Engine e;
  double seen = -1;
  e.schedule_in(2.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] {
    ++fired;
    e.schedule_in(1.0, [&] {
      ++fired;
      e.schedule_in(1.0, [&] { ++fired; });
    });
  });
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  double when = -1;
  e.schedule_at(4.0, [&] { e.schedule_in(0.0, [&] { when = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(when, 4.0);
}

TEST(Engine, PastSchedulingThrows) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(4.0, [] {}), util::InvariantError);
}

TEST(Engine, NonFiniteTimeThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
               util::InvariantError);
  EXPECT_THROW(e.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
               util::InvariantError);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceIsNoop) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelFromWithinHandler) {
  Engine e;
  bool fired = false;
  const EventId victim = e.schedule_at(2.0, [&] { fired = true; });
  e.schedule_at(1.0, [&] { e.cancel(victim); });
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1.0); });
  e.schedule_at(2.0, [&] { fired.push_back(2.0); });
  e.schedule_at(3.0, [&] { fired.push_back(3.0); });
  EXPECT_TRUE(e.run_until(2.0));  // events at t <= 2 fire
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_FALSE(e.run_until(10.0));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, ExecutedCountExcludesCancelled) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.executed_count(), 1u);
}

TEST(Engine, PendingCountTracksQueue) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending_count(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending_count(), 1u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    e.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.executed_count(), 10000u);
}

TEST(Engine, NaNTimeErrorNamesNaN) {
  // NaN compares false with everything, so a past-time check that runs
  // first used to misreport NaN as "in the past". The finiteness check must
  // run first and the error must say NaN.
  Engine e;
  try {
    e.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {});
    FAIL() << "NaN time must throw";
  } catch (const util::InvariantError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("NaN"), std::string::npos) << what;
    EXPECT_EQ(what.find("past"), std::string::npos) << what;
  }
}

TEST(Engine, QueueDepthMetricIsLiveCountAfterCancelBursts) {
  // Tombstones sit in the queue until popped or compacted; the queue-depth
  // gauge and pending_count() must report the live count anyway.
  stats::MetricsRegistry metrics;
  obs::Sinks sinks;
  sinks.metrics = &metrics;
  Engine e(sinks);
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(e.schedule_at(static_cast<double>(i) + 1.0, [] {}));
  }
  for (int i = 0; i < 200; i += 2) e.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(e.pending_count(), 100u);
  EXPECT_DOUBLE_EQ(metrics.gauge("sim.queue_depth").value(), 100.0);
  // Executing events keeps the gauge in sync too (it used to be updated
  // only by schedule_at).
  e.step();
  EXPECT_EQ(e.pending_count(), 99u);
  EXPECT_DOUBLE_EQ(metrics.gauge("sim.queue_depth").value(), 99.0);
  e.run();
  EXPECT_EQ(e.pending_count(), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("sim.queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sim.events_executed").value(), 100.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sim.events_cancelled").value(), 100.0);
}

TEST(Engine, CancelHeavyChurnExecutesSurvivorsInOrder) {
  // Interleaved schedule/cancel bursts (the tombstone-compaction path) must
  // not lose or reorder surviving events.
  Engine e;
  std::vector<double> fired;
  std::vector<EventId> cancelled;
  int expected = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      const double t = static_cast<double>((round * 40 + i) % 97) + 1.0;
      const EventId id = e.schedule_at(t, [&fired, t] { fired.push_back(t); });
      if (i % 4 != 0) {
        cancelled.push_back(id);
      } else {
        ++expected;
      }
    }
    for (const EventId id : cancelled) e.cancel(id);
    cancelled.clear();
  }
  e.run();
  EXPECT_EQ(static_cast<int>(fired.size()), expected);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Engine, CalendarHandlesClusteredAndFarApartTimes) {
  // Sub-nanosecond clusters next to year-scale gaps exercise the calendar's
  // rebuild and direct-search fallback paths; ordering must survive.
  Engine e;
  double last = -1.0;
  bool monotone = true;
  auto probe = [&](double t) {
    e.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  };
  for (int i = 0; i < 500; ++i) probe(1.0 + 1e-9 * i);
  for (int i = 0; i < 500; ++i) probe(3.1e7 * (i + 1));
  for (int i = 0; i < 500; ++i) probe(2.0 + 1e-9 * i);
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.executed_count(), 1500u);
}

TEST(CalendarQueue, ShrinkRebuildMovingEverythingToFarHeapStillPops) {
  // Regression: a shrink rebuild re-derives the bucket width from the
  // survivors' time span. When the only survivors are a 1-ulp-wide cluster
  // at a large timestamp, the re-derived width is so small that every
  // survivor's day index overflows 2^53 and the whole pending set lands in
  // the far_ overflow heap -- the calendar-empty case must be re-checked
  // after the rebuild or the fallback scan reads past the bucket array.
  CalendarQueue q;
  std::uint64_t seq = 0;
  auto push = [&](double t) {
    EventRecord r;
    r.time = t;
    r.seq = seq++;
    r.id = seq;
    q.push(r);
  };
  // 500 spread records grow the calendar well past kMinBuckets, so popping
  // them back out triggers the shrink-rebuild cascade.
  for (int i = 0; i < 500; ++i) push(static_cast<double>(i));
  const double t0 = 1.0e6;
  for (int i = 0; i < 7; ++i) push(t0);
  push(std::nextafter(t0, 2.0 * t0));

  EventRecord r;
  double last = -1.0;
  std::size_t popped = 0;
  while (q.pop_min(r)) {
    EXPECT_GE(r.time, last);
    last = r.time;
    ++popped;
  }
  EXPECT_EQ(popped, 508u);
  EXPECT_TRUE(q.empty());
}

TEST(Engine, FifoAmongEqualTimestampsSurvivesCancelChurn) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(e.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 100; i += 2) e.cancel(ids[static_cast<std::size_t>(i)]);
  e.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    EXPECT_LT(order[k], order[k + 1]);  // insertion order among equal times
  }
}

}  // namespace
}  // namespace bbsim::sim
