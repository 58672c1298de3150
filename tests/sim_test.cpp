// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/sinks.hpp"
#include "sim/engine.hpp"
#include "stats/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

TEST(Engine, RunUntilRejectsPastAndNonFiniteTimes) {
  // With a later event pending, a past boundary used to move the clock
  // backwards (an event scheduled after it could then run before one that
  // already ran), and a NaN boundary ran every pending event.
  Engine e;
  std::vector<double> fired;
  e.schedule_at(5.0, [&] { fired.push_back(e.now()); });
  e.schedule_at(7.0, [&] { fired.push_back(e.now()); });
  EXPECT_TRUE(e.run_until(5.0));
  try {
    e.run_until(3.0);
    FAIL() << "a past boundary must throw";
  } catch (const util::InvariantError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("run_until"), std::string::npos) << what;
    EXPECT_NE(what.find("past"), std::string::npos) << what;
  }
  try {
    e.run_until(std::numeric_limits<double>::quiet_NaN());
    FAIL() << "a NaN boundary must throw";
  } catch (const util::InvariantError& err) {
    EXPECT_NE(std::string(err.what()).find("NaN"), std::string::npos) << err.what();
  }
  EXPECT_THROW(e.run_until(std::numeric_limits<double>::infinity()),
               util::InvariantError);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending_count(), 1u);
  EXPECT_EQ(fired, (std::vector<double>{5.0}));
  EXPECT_TRUE(e.run_until(5.0));  // the current time is a valid boundary
  EXPECT_THROW(e.schedule_at(4.0, [] {}), util::InvariantError);
  e.run();
  EXPECT_EQ(fired, (std::vector<double>{5.0, 7.0}));
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
  // Sub-nanosecond clusters next to year-scale gaps (the inputs that once
  // drove a calendar queue's rebuild and fallback paths); ordering must
  // survive.
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
  // The input of a calendar-queue regression, kept for the engine's heap:
  // once 500 spread events drain, the only survivors are a 1-ulp-wide
  // cluster at a large timestamp. A shrink rebuild used to re-derive a
  // bucket width so small that every survivor overflowed into a side heap
  // the pop path did not re-check. Every event must still pop, in order.
  Engine e;
  auto push = [&](double t) { e.schedule_at(t, [] {}); };
  for (int i = 0; i < 500; ++i) push(static_cast<double>(i));
  const double t0 = 1.0e6;
  for (int i = 0; i < 7; ++i) push(t0);
  push(std::nextafter(t0, 2.0 * t0));

  double last = -1.0;
  std::size_t popped = 0;
  while (e.step()) {
    EXPECT_GE(e.now(), last);
    last = e.now();
    ++popped;
  }
  EXPECT_EQ(popped, 508u);
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, RandomScheduleCancelStepMatchesBruteForceOrder) {
  // Seeded mix of schedule_at (exact ties, sub-ns clusters, timestamps past
  // 2^53 s), cancel (of live, fired and already-cancelled ids) and step,
  // in phases that grow the queue, cancel in bursts (tombstone compaction)
  // and drain it. A brute-force model holds every live (time, id); each
  // step must fire the model's first entry in (time, id) order, and
  // pending_count() must equal the model's size after every operation.
  constexpr double kTwoPow53 = 9007199254740992.0;
  util::Rng rng(17);
  for (int round = 0; round < 6; ++round) {
    Engine e;
    std::vector<std::pair<Time, EventId>> live;
    std::vector<EventId> scheduled;  // every id scheduled, in order
    std::vector<EventId> fired;
    double cluster = 0.0;
    for (int op = 0; op < 3000; ++op) {
      // Phase weights out of 10: {schedule, cancel}; the rest steps.
      static constexpr int kWeights[3][2] = {{7, 1}, {2, 6}, {2, 1}};
      const int* w = kWeights[(op / 250) % 3];
      const std::int64_t pick = rng.uniform_int(0, 9);
      if (pick < w[0]) {
        Time t = e.now();
        switch (rng.uniform_int(0, 3)) {
          case 0:  // an exact tie with a live event
            if (!live.empty()) {
              t = live[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(live.size()) - 1))]
                      .first;
            }
            break;
          case 1:  // a sub-nanosecond cluster
            if (cluster < t || rng.uniform_int(0, 19) == 0) {
              cluster = t + rng.uniform(0.0, 5.0);
            }
            t = cluster + 1e-10 * static_cast<double>(rng.uniform_int(0, 9));
            break;
          case 2:  // past 2^53 s, where doubles are 2 s apart
            t = std::max(t, kTwoPow53) + 2.0 * static_cast<double>(rng.uniform_int(0, 8));
            break;
          default:
            t += rng.uniform(0.0, 10.0);
        }
        const std::size_t slot = scheduled.size();
        const EventId id =
            e.schedule_at(t, [&fired, &scheduled, slot] { fired.push_back(scheduled[slot]); });
        scheduled.push_back(id);
        live.emplace_back(t, id);
      } else if (pick < w[0] + w[1] && !scheduled.empty()) {
        // Mostly live victims, so bursts leave tombstones behind.
        EventId victim = 0;
        if (!live.empty() && rng.uniform_int(0, 2) != 0) {
          victim = live[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(live.size()) - 1))]
                       .second;
        } else {
          victim = scheduled[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(scheduled.size()) - 1))];
        }
        const auto it = std::find_if(live.begin(), live.end(),
                                     [victim](const auto& r) { return r.second == victim; });
        const bool was_live = it != live.end();
        if (was_live) live.erase(it);
        ASSERT_EQ(e.cancel(victim), was_live) << "round " << round << " op " << op;
      } else {
        std::sort(live.begin(), live.end());
        fired.clear();
        ASSERT_EQ(e.step(), !live.empty()) << "round " << round << " op " << op;
        if (!live.empty()) {
          ASSERT_EQ(fired, std::vector<EventId>{live.front().second})
              << "round " << round << " op " << op;
          ASSERT_EQ(e.now(), live.front().first);
          live.erase(live.begin());
        }
      }
      ASSERT_EQ(e.pending_count(), live.size()) << "round " << round << " op " << op;
    }
    std::sort(live.begin(), live.end());
    fired.clear();
    e.run();
    std::vector<EventId> want;
    for (const auto& r : live) want.push_back(r.second);
    EXPECT_EQ(fired, want) << "round " << round;
    EXPECT_EQ(e.pending_count(), 0u);
  }
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

/// The handler slot an id names (its low Engine::kSlotBits bits).
std::uint64_t slot_of(EventId id) {
  return id & ((std::uint64_t{1} << Engine::kSlotBits) - 1);
}

TEST(Engine, StaleIdCancelsNothingAfterItsSlotIsReused) {
  Engine e;
  bool fired_first = false;
  const EventId fired = e.schedule_at(1.0, [&] { fired_first = true; });
  ASSERT_TRUE(e.step());
  ASSERT_TRUE(fired_first);
  bool second = false;
  const EventId reuser = e.schedule_at(2.0, [&] { second = true; });
  ASSERT_EQ(slot_of(reuser), slot_of(fired));  // the fired event's slot
  EXPECT_NE(reuser, fired);
  EXPECT_FALSE(e.cancel(fired));
  EXPECT_EQ(e.pending_count(), 1u);

  const EventId cancelled = e.schedule_at(3.0, [] {});
  ASSERT_TRUE(e.cancel(cancelled));
  bool third = false;
  const EventId reuser2 = e.schedule_at(3.0, [&] { third = true; });
  ASSERT_EQ(slot_of(reuser2), slot_of(cancelled));
  EXPECT_FALSE(e.cancel(cancelled));
  EXPECT_FALSE(e.cancel(fired));
  EXPECT_EQ(e.pending_count(), 2u);
  e.run();
  EXPECT_TRUE(second);
  EXPECT_TRUE(third);
  EXPECT_FALSE(e.cancel(0));  // 0 is never an id
}

TEST(Engine, FifoAmongEqualTimesHoldsAcrossSlotReuse) {
  // Cancelling frees slots out of order; later events at the same time
  // reuse lower slots than some earlier ones, yet fire after all of them.
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(e.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  for (const int victim : {7, 2, 5}) e.cancel(ids[static_cast<std::size_t>(victim)]);
  for (int i = 10; i < 13; ++i) {
    ids.push_back(e.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  EXPECT_LT(slot_of(ids[10]), slot_of(ids[9]));  // a reused, lower slot
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));  // ids still grow
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 6, 8, 9, 10, 11, 12}));
}

TEST(Engine, EventIdFieldsThrowOnOverflowInsteadOfWrapping) {
  constexpr std::uint64_t kSlots = std::uint64_t{1} << Engine::kSlotBits;
  constexpr std::uint64_t kSequences = std::uint64_t{1} << (64 - Engine::kSlotBits);
  EXPECT_THROW((void)Engine::make_id(kSequences, 0), util::LimitError);
  EXPECT_THROW((void)Engine::make_id(1, kSlots), util::LimitError);
  const EventId last = Engine::make_id(kSequences - 1, kSlots - 1);
  EXPECT_EQ(last, std::numeric_limits<EventId>::max());
  // The sequence number decides the order, whatever the slots.
  EXPECT_LT(Engine::make_id(7, kSlots - 1), Engine::make_id(8, 0));
}

}  // namespace
}  // namespace bbsim::sim
