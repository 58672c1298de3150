// Unit + property tests for the max-min fair-sharing flow model.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "flow/manager.hpp"
#include "flow/network.hpp"
#include "obs/sinks.hpp"
#include "sim/engine.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bbsim::flow {
namespace {

// ------------------------------------------------------------ solver (pure)

TEST(Network, SingleFlowGetsFullCapacity) {
  Network net;
  const ResourceId r = net.add_resource("link", 100.0);
  const FlowId f = net.add_flow({1000.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f).rate, 100.0);
  net.check_invariants();
}

TEST(Network, EqualShareAmongEqualFlows) {
  Network net;
  const ResourceId r = net.add_resource("link", 90.0);
  const FlowId a = net.add_flow({1.0, {r}});
  const FlowId b = net.add_flow({1.0, {r}});
  const FlowId c = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 30.0);
  EXPECT_DOUBLE_EQ(net.flow(b).rate, 30.0);
  EXPECT_DOUBLE_EQ(net.flow(c).rate, 30.0);
  net.check_invariants();
}

TEST(Network, BottleneckIsMinAlongPath) {
  Network net;
  const ResourceId fast = net.add_resource("fast", 1000.0);
  const ResourceId slow = net.add_resource("slow", 10.0);
  const FlowId f = net.add_flow({1.0, {fast, slow}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f).rate, 10.0);
}

TEST(Network, MaxMinRedistribution) {
  // Classic example: r1 capacity 10 shared by f1,f2; r2 capacity 100 used by
  // f2,f3. f1 and f2 get 5 each (r1 bottleneck); f3 gets the r2 remainder 95.
  Network net;
  const ResourceId r1 = net.add_resource("r1", 10.0);
  const ResourceId r2 = net.add_resource("r2", 100.0);
  const FlowId f1 = net.add_flow({1.0, {r1}});
  const FlowId f2 = net.add_flow({1.0, {r1, r2}});
  const FlowId f3 = net.add_flow({1.0, {r2}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f1).rate, 5.0);
  EXPECT_DOUBLE_EQ(net.flow(f2).rate, 5.0);
  EXPECT_DOUBLE_EQ(net.flow(f3).rate, 95.0);
  net.check_invariants();
}

TEST(Network, RateCapFreezesFlowEarly) {
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  FlowSpec capped{1.0, {r}};
  capped.rate_cap = 10.0;
  const FlowId a = net.add_flow(capped);
  const FlowId b = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 10.0);
  EXPECT_TRUE(net.flow(a).bottlenecked_by_cap);
  EXPECT_DOUBLE_EQ(net.flow(b).rate, 90.0);
  net.check_invariants();
}

TEST(Network, WeightsSkewShares) {
  Network net;
  const ResourceId r = net.add_resource("r", 90.0);
  FlowSpec heavy{1.0, {r}};
  heavy.weight = 2.0;
  const FlowId a = net.add_flow(heavy);
  const FlowId b = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 60.0);
  EXPECT_DOUBLE_EQ(net.flow(b).rate, 30.0);
}

TEST(Network, UnlimitedResourceDoesNotConstrain) {
  Network net;
  const ResourceId inf = net.add_resource("inf", kUnlimited);
  const ResourceId fin = net.add_resource("fin", 50.0);
  const FlowId f = net.add_flow({1.0, {inf, fin}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f).rate, 50.0);
}

TEST(Network, FullyUnconstrainedFlowGetsInfiniteRate) {
  Network net;
  const ResourceId inf = net.add_resource("inf", kUnlimited);
  const FlowId f = net.add_flow({1.0, {inf}});
  net.solve();
  EXPECT_EQ(net.flow(f).rate, kUnlimited);
}

TEST(Network, PathlessCappedFlowRunsAtCap) {
  Network net;
  FlowSpec s{1.0, {}};
  s.rate_cap = 7.0;
  const FlowId f = net.add_flow(s);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f).rate, 7.0);
}

TEST(Network, RemoveFlowFreesCapacity) {
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  const FlowId a = net.add_flow({1.0, {r}});
  const FlowId b = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 50.0);
  net.remove_flow(b);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 100.0);
  EXPECT_FALSE(net.has_flow(b));
}

TEST(Network, RejectsInvalidSpecs) {
  Network net;
  const ResourceId r = net.add_resource("r", 10.0);
  EXPECT_THROW(net.add_flow({-1.0, {r}}), util::InvariantError);
  FlowSpec bad_weight{1.0, {r}};
  bad_weight.weight = 0.0;
  EXPECT_THROW(net.add_flow(bad_weight), util::InvariantError);
  EXPECT_THROW(net.add_flow({1.0, {99}}), util::NotFoundError);
  EXPECT_THROW(net.add_resource("neg", -1.0), util::InvariantError);
}

TEST(Network, ZeroCapacityStarvesFlows) {
  Network net;
  const ResourceId r = net.add_resource("r", 0.0);
  const FlowId f = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f).rate, 0.0);
}

// Property sweep: random networks satisfy feasibility + max-min optimality.
class NetworkPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NetworkPropertyTest, RandomNetworksSatisfyInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Network net;
  const int n_res = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n_res; ++i) {
    const double cap = rng.chance(0.15) ? kUnlimited : rng.uniform(1.0, 1000.0);
    net.add_resource("r" + std::to_string(i), cap);
  }
  const int n_flows = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < n_flows; ++i) {
    FlowSpec s;
    s.volume = rng.uniform(0.0, 100.0);
    const int path_len = static_cast<int>(rng.uniform_int(0, std::min(4, n_res)));
    for (int k = 0; k < path_len; ++k) {
      s.path.push_back(static_cast<ResourceId>(rng.uniform_int(0, n_res - 1)));
    }
    if (rng.chance(0.3)) s.rate_cap = rng.uniform(1.0, 200.0);
    if (rng.chance(0.3)) s.weight = rng.uniform(0.5, 4.0);
    net.add_flow(s);
  }
  net.solve();
  net.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkPropertyTest, ::testing::Range(0, 50));

// --------------------------------------------------------- manager (timed)

TEST(FlowManager, SingleFlowCompletionTime) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double done_at = -1;
  fm.start({1000.0, {r}}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST(FlowManager, ZeroVolumeCompletesImmediately) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double done_at = -1;
  fm.start({0.0, {r}}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(FlowManager, TwoEqualFlowsShareAndFinishTogether) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double a = -1, b = -1;
  fm.start({1000.0, {r}}, [&] { a = engine.now(); });
  fm.start({1000.0, {r}}, [&] { b = engine.now(); });
  engine.run();
  // Each gets 50 B/s -> both complete at t = 20.
  EXPECT_DOUBLE_EQ(a, 20.0);
  EXPECT_DOUBLE_EQ(b, 20.0);
}

TEST(FlowManager, LateArrivalSlowsExistingFlow) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double a = -1, b = -1;
  fm.start({1000.0, {r}}, [&] { a = engine.now(); });
  engine.schedule_at(5.0, [&] { fm.start({1000.0, {r}}, [&] { b = engine.now(); }); });
  engine.run();
  // Flow A: 500 bytes alone (t=0..5), then shares 50/50. Remaining 500 at
  // 50 B/s -> finishes at t=15. Flow B then runs alone: remaining 500 at
  // 100 B/s -> finishes at t=20.
  EXPECT_DOUBLE_EQ(a, 15.0);
  EXPECT_DOUBLE_EQ(b, 20.0);
}

TEST(FlowManager, CompletionFreesBandwidthForRemainder) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double small = -1, big = -1;
  fm.start({200.0, {r}}, [&] { small = engine.now(); });
  fm.start({1000.0, {r}}, [&] { big = engine.now(); });
  engine.run();
  // Shared 50/50 until small finishes at t=4 (200/50); big then has
  // 800 left at 100 B/s -> t = 4 + 8 = 12.
  EXPECT_DOUBLE_EQ(small, 4.0);
  EXPECT_DOUBLE_EQ(big, 12.0);
}

TEST(FlowManager, AbortSuppressesCallback) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  bool fired = false;
  const FlowId f = fm.start({1000.0, {r}}, [&] { fired = true; });
  engine.schedule_at(1.0, [&] { EXPECT_TRUE(fm.cancel(f).has_value()); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fm.active_count(), 0u);
}

TEST(FlowManager, CancelMidTransferSettlesPartialBytes) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  bool fired = false;
  const FlowId f = fm.start({1000.0, {r}}, [&] { fired = true; });
  std::optional<double> moved;
  engine.schedule_at(4.0, [&] { moved = fm.cancel(f); });
  engine.run();
  EXPECT_FALSE(fired);
  ASSERT_TRUE(moved.has_value());
  // 4 s at 100 B/s before the cancel.
  EXPECT_NEAR(*moved, 400.0, 1e-6);
  // The partial bytes are settled into the resource ledger, and the busy
  // window covers only the time the flow actually ran.
  EXPECT_NEAR(fm.network().resource(r).bytes_served, 400.0, 1e-6);
  EXPECT_NEAR(fm.network().resource(r).busy_time, 4.0, 1e-9);
  EXPECT_EQ(fm.active_count(), 0u);
}

TEST(FlowManager, CancelBeforeAnyProgressReturnsZero) {
  // Cancel at the same instant the flow starts: known flow, zero bytes moved.
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  bool fired = false;
  std::optional<double> moved;
  engine.schedule_at(0.0, [&] {
    const FlowId f = fm.start({1000.0, {r}}, [&] { fired = true; });
    moved = fm.cancel(f);
  });
  engine.run();
  EXPECT_FALSE(fired);
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(*moved, 0.0);
  EXPECT_DOUBLE_EQ(fm.network().resource(r).bytes_served, 0.0);
}

TEST(FlowManager, CancelAfterFinishIsNoOp) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  bool fired = false;
  const FlowId f = fm.start({100.0, {r}}, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  // The flow completed and its handler ran; cancel must not find it.
  EXPECT_FALSE(fm.cancel(f).has_value());
  EXPECT_NEAR(fm.network().resource(r).bytes_served, 100.0, 1e-6);
}

TEST(FlowManager, CancelOfUnknownFlowIsNullopt) {
  sim::Engine engine;
  FlowManager fm(engine);
  EXPECT_FALSE(fm.cancel(9876).has_value());
}

TEST(FlowManager, CancelFreesBandwidthForSurvivors) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double survivor_done = -1;
  const FlowId victim = fm.start({1000.0, {r}}, nullptr);
  fm.start({1000.0, {r}}, [&] { survivor_done = engine.now(); });
  engine.schedule_at(10.0, [&] { fm.cancel(victim); });
  engine.run();
  // Shared 50/50 for 10 s (500 B each), then the survivor gets the full
  // 100 B/s: 500 remaining -> done at t = 15.
  EXPECT_DOUBLE_EQ(survivor_done, 15.0);
}

TEST(FlowManager, CapacityChangeMidFlight) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double done = -1;
  fm.start({1000.0, {r}}, [&] { done = engine.now(); });
  engine.schedule_at(5.0, [&] { fm.set_capacity(r, 50.0); });
  engine.run();
  // 500 bytes in the first 5 s, then 500 at 50 B/s -> t = 15.
  EXPECT_DOUBLE_EQ(done, 15.0);
}

TEST(FlowManager, CompletionCallbackCanStartNextFlow) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  double second_done = -1;
  fm.start({500.0, {r}}, [&] {
    fm.start({500.0, {r}}, [&] { second_done = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(second_done, 10.0);
}

TEST(FlowManager, ResourceAccountingTracksBytesAndBusyTime) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  fm.start({1000.0, {r}}, nullptr);
  engine.run();
  EXPECT_NEAR(fm.network().resource(r).bytes_served, 1000.0, 1e-6);
  EXPECT_NEAR(fm.network().resource(r).busy_time, 10.0, 1e-9);
}

TEST(FlowManager, BusyTimeExcludesIdleGaps) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  fm.start({100.0, {r}}, nullptr);  // busy t=0..1
  engine.schedule_at(5.0, [&] { fm.start({100.0, {r}}, nullptr); });  // busy t=5..6
  engine.run();
  EXPECT_NEAR(fm.network().resource(r).busy_time, 2.0, 1e-9);
  EXPECT_NEAR(fm.network().resource(r).bytes_served, 200.0, 1e-6);
}

TEST(FlowManager, ManyConcurrentFlowsConserveWork) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 123.0);
  const int n = 64;
  int completed = 0;
  util::Rng rng(5);
  double total = 0;
  for (int i = 0; i < n; ++i) {
    const double volume = rng.uniform(1.0, 500.0);
    total += volume;
    fm.start({volume, {r}}, [&] { ++completed; });
  }
  const double finish = engine.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(fm.network().resource(r).bytes_served, total, 1e-3);
  // Work conservation: single saturated resource -> finish = total/capacity.
  EXPECT_NEAR(finish, total / 123.0, 1e-6);
}

// ------------------------------------------------------ seeded manager churn

/// Drives a FlowManager through seeded churn, one engine event at a time:
/// batches of identical flows (which finish at one instant), zero-volume
/// and unlimited-rate flows, starts from completion callbacks, mid-flight
/// cancels, and capacity changes including starvation windows. Flows are
/// numbered in creation order; with a timeline attached, flow n is span n.
class FlowChurn {
 public:
  FlowChurn(std::uint64_t seed, const obs::Sinks& sinks) : rng_(seed), fm_(engine_, sinks) {
    for (int i = 0; i < 4; ++i) {
      finite_.push_back(
          fm_.network().add_resource("r" + std::to_string(i), rng_.uniform(50.0, 500.0)));
    }
    unlimited_ = fm_.network().add_resource("u", kUnlimited);
  }

  /// Schedule `ops` churn operations over [0, 40) s, then run the engine
  /// one event at a time, calling `after_event()` after each.
  template <typename Fn>
  void run(int ops, Fn&& after_event) {
    for (int i = 0; i < ops; ++i) {
      engine_.schedule_at(rng_.uniform(0.0, 40.0), [this] { churn_op(); });
    }
    while (true) {
      fired_.clear();
      if (!engine_.step()) break;
      if (fired_.size() > 1) ++simultaneous_batches_;
      // One wake-up's callbacks fire in creation order.
      for (std::size_t i = 1; i < fired_.size(); ++i) {
        ASSERT_LT(fired_[i - 1], fired_[i]) << "at t=" << engine_.now();
      }
      after_event();
    }
  }

  sim::Engine& engine() { return engine_; }
  FlowManager& manager() { return fm_; }
  /// Live flows: creation number -> flow id.
  const std::map<std::size_t, FlowId>& live() const { return live_; }
  std::size_t started() const { return next_; }
  int simultaneous_batches() const { return simultaneous_batches_; }
  int recycled_ids() const { return recycled_ids_; }
  int cancels() const { return cancels_; }

 private:
  util::Rng rng_;
  sim::Engine engine_;
  FlowManager fm_;
  std::vector<ResourceId> finite_;
  ResourceId unlimited_ = 0;
  std::map<std::size_t, FlowId> live_;
  std::set<FlowId> seen_ids_;
  std::vector<std::size_t> fired_;  ///< completions in the current event
  std::size_t next_ = 0;
  int simultaneous_batches_ = 0;
  int recycled_ids_ = 0;
  int cancels_ = 0;

  FlowSpec random_spec() {
    FlowSpec s;
    s.volume = rng_.chance(0.15) ? 0.0 : rng_.uniform(1.0, 800.0);
    if (rng_.chance(0.1)) {
      // Crosses only unconstrained resources (or none): an unlimited rate.
      if (rng_.chance(0.5)) s.path.push_back(unlimited_);
      return s;
    }
    const int hops = static_cast<int>(rng_.uniform_int(1, 2));
    for (int k = 0; k < hops; ++k) {
      s.path.push_back(finite_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(finite_.size()) - 1))]);
    }
    if (rng_.chance(0.3)) s.rate_cap = rng_.uniform(10.0, 200.0);
    return s;
  }

  void start(const FlowSpec& spec) {
    const std::size_t n = next_++;
    const FlowId id = fm_.start(spec, [this, n] {
      fired_.push_back(n);
      live_.erase(n);
      // Completion callbacks may start flows (never cancel: a rate point
      // published for a flow stays observable after its event).
      if (rng_.chance(0.2)) start(random_spec());
    });
    if (!seen_ids_.insert(id).second) ++recycled_ids_;
    live_[n] = id;
  }

  void churn_op() {
    const double op = rng_.uniform(0.0, 1.0);
    if (op < 0.5) {
      // A batch of identical flows started together finishes together.
      const FlowSpec spec = random_spec();
      const int copies = static_cast<int>(rng_.uniform_int(1, 3));
      for (int i = 0; i < copies; ++i) start(spec);
    } else if (op < 0.75) {
      if (live_.empty()) return;
      auto it = live_.begin();
      std::advance(it, rng_.uniform_int(0, static_cast<std::int64_t>(live_.size()) - 1));
      const FlowId id = it->second;
      live_.erase(it);
      const std::optional<double> moved = fm_.cancel(id);
      ASSERT_TRUE(moved.has_value());
      EXPECT_GE(*moved, 0.0);
      ++cancels_;
    } else {
      const ResourceId r = finite_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(finite_.size()) - 1))];
      if (rng_.chance(0.3)) {
        // A starvation window: the resource's flows stall, then resume.
        fm_.set_capacity(r, 0.0);
        const double restore = rng_.uniform(50.0, 500.0);
        engine_.schedule_in(rng_.uniform(0.5, 3.0),
                            [this, r, restore] { fm_.set_capacity(r, restore); });
      } else {
        fm_.set_capacity(r, rng_.uniform(50.0, 500.0));
      }
    }
  }
};

class FlowManagerChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowManagerChurnTest, CompletionIndexMatchesBruteForceAfterEveryEvent) {
  FlowChurn churn(static_cast<std::uint64_t>(GetParam()), {});
  int events = 0;
  churn.run(120, [&] {
    ++events;
    ASSERT_NO_THROW(churn.manager().check_invariants()) << "event " << events;
  });
  EXPECT_TRUE(churn.live().empty());
  EXPECT_EQ(churn.manager().active_count(), 0u);
  // The churn reached every case the index must handle.
  EXPECT_GT(churn.simultaneous_batches(), 0);
  EXPECT_GT(churn.recycled_ids(), 0);
  EXPECT_GT(churn.cancels(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowManagerChurnTest, ::testing::Range(1, 9));

TEST(FlowManagerTimeline, RatePointsMatchLiveRatesUnderChurn) {
  // Rates are published only for the flows each solve re-solved. Every
  // live flow's current rate, read after every event, must still be what
  // its span says at that instant, and every rate point must be a rate the
  // flow really had (the last one read at that instant wins).
  trace::TimelineRecorder rec;
  obs::Sinks sinks;
  sinks.timeline = &rec;
  FlowChurn churn(20261017, sinks);
  std::map<std::pair<std::size_t, double>, double> observed;  // (span, t) -> rate
  churn.run(150, [&] {
    for (const auto& [n, id] : churn.live()) {
      observed[{n, churn.engine().now()}] = churn.manager().current_rate(id);
    }
  });
  const trace::Timeline tl = rec.finish();
  ASSERT_EQ(tl.flows.size(), churn.started());

  std::size_t checked = 0;
  for (const auto& [key, rate] : observed) {
    if (!std::isfinite(rate)) continue;  // unlimited flows publish no rate
    const std::vector<trace::RatePoint>& points = tl.flows[key.first].rates;
    const trace::RatePoint* at = nullptr;
    for (const trace::RatePoint& p : points) {
      if (p.time <= key.second) at = &p;
    }
    ASSERT_NE(at, nullptr) << "span " << key.first << " has no rate at t=" << key.second;
    EXPECT_EQ(at->rate, rate) << "span " << key.first << " at t=" << key.second;
    ++checked;
  }
  for (std::size_t n = 0; n < tl.flows.size(); ++n) {
    for (const trace::RatePoint& p : tl.flows[n].rates) {
      const auto it = observed.find({n, p.time});
      ASSERT_NE(it, observed.end()) << "span " << n << " rate point at t=" << p.time;
      EXPECT_EQ(p.rate, it->second) << "span " << n << " at t=" << p.time;
    }
  }
  EXPECT_GT(checked, 500u);
}

}  // namespace
}  // namespace bbsim::flow

namespace bbsim::flow {
namespace {

TEST(NetworkEdge, WeightAndCapInteract) {
  // A heavy flow capped below its fair share: the cap wins, and the
  // remainder redistributes to the light flow.
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  FlowSpec heavy{1.0, {r}};
  heavy.weight = 9.0;
  heavy.rate_cap = 30.0;
  const FlowId a = net.add_flow(heavy);
  const FlowId b = net.add_flow({1.0, {r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(a).rate, 30.0);
  EXPECT_DOUBLE_EQ(net.flow(b).rate, 70.0);
  net.check_invariants();
}

TEST(NetworkEdge, RepeatedResourceInPathCountsTwice) {
  // A flow crossing the same link twice (e.g. through a relay) consumes a
  // double share of it.
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  const FlowId twice = net.add_flow({1.0, {r, r}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(twice).rate, 50.0);
  net.check_invariants();
}

TEST(NetworkEdge, ManySmallPlusOneHuge) {
  sim::Engine engine;
  FlowManager fm(engine);
  const ResourceId r = fm.network().add_resource("r", 100.0);
  int small_done = 0;
  double huge_done = -1;
  for (int i = 0; i < 9; ++i) fm.start({10.0, {r}}, [&] { ++small_done; });
  fm.start({1000.0, {r}}, [&] { huge_done = engine.now(); });
  engine.run();
  EXPECT_EQ(small_done, 9);
  // Work conservation: total 1090 bytes over a 100 B/s resource.
  EXPECT_DOUBLE_EQ(huge_done, 10.9);
}

TEST(NetworkEdge, AbortOfUnknownFlowIsFalse) {
  sim::Engine engine;
  FlowManager fm(engine);
  EXPECT_FALSE(fm.cancel(12345).has_value());
}

// --------------------------------------------- NaN / degenerate hardening

TEST(NetworkHardening, NanRateCapIsRejected) {
  // NaN sails through `rate_cap <= 0` (every comparison with NaN is false),
  // so before the fix a NaN cap entered the solver and poisoned the level
  // scan. It must be rejected at the door instead.
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  FlowSpec nan_cap{1.0, {r}};
  nan_cap.rate_cap = std::nan("");
  EXPECT_THROW(net.add_flow(nan_cap), util::InvariantError);
  try {
    net.add_flow(nan_cap);
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos);
  }
}

TEST(NetworkHardening, NanCapacityErrorNamesNaN) {
  // "negative capacity nan" misdiagnoses the violation; the message must
  // name NaN so the real input bug is findable.
  Network net;
  try {
    net.add_resource("r", std::nan(""));
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos);
  }
  const ResourceId r = net.add_resource("r", 1.0);
  try {
    net.set_capacity(r, std::nan(""));
    FAIL() << "expected InvariantError";
  } catch (const util::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos);
  }
}

TEST(NetworkHardening, TinyWeightSurvivesCancellation) {
  // Regression for the zero-unfrozen-weight bug. Two normal flows freeze at
  // their caps in earlier rounds; the remaining flow's weight (1e-13) fell
  // below the old incremental bookkeeping's absorption clamp, leaving
  // unfrozen_weight[r] == 0 while an unfrozen flow still crossed r. The
  // saturation scan then computed 0/0 = NaN (or skipped the resource
  // entirely), and the tiny flow froze at its cap of 100 -- ten times the
  // resource's total capacity -- so check_invariants() threw.
  Network net;
  const ResourceId r = net.add_resource("r", 10.0);
  FlowSpec a{1.0, {r}};
  a.rate_cap = 2.0;
  FlowSpec b{1.0, {r}};
  b.weight = 1e-13;
  b.rate_cap = 100.0;
  FlowSpec c{1.0, {r}};
  c.rate_cap = 3.0;
  const FlowId fa = net.add_flow(a);
  const FlowId fb = net.add_flow(b);
  const FlowId fc = net.add_flow(c);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(fa).rate, 2.0);
  EXPECT_DOUBLE_EQ(net.flow(fc).rate, 3.0);
  // The tiny flow soaks up exactly the spare capacity, no more.
  EXPECT_TRUE(std::isfinite(net.flow(fb).rate));
  EXPECT_NEAR(net.flow(fb).rate, 5.0, 1e-6);
  EXPECT_NO_THROW(net.check_invariants());
}

TEST(NetworkHardening, ExhaustedResourceDoesNotPoisonLaterRounds) {
  // fa's cap exactly equals r's capacity, so after round 1 the resource is
  // fully consumed with zero unfrozen weight. The unguarded level scan then
  // computed (capacity - frozen_load) / unfrozen_weight = 0/0 = NaN in
  // round 2; the fix skips resources with no unfrozen weight.
  Network net;
  const ResourceId r = net.add_resource("r", 10.0);
  const ResourceId s = net.add_resource("s", 100.0);
  FlowSpec capped{1.0, {r}};
  capped.rate_cap = 10.0;
  const FlowId fa = net.add_flow(capped);
  const FlowId fb = net.add_flow({1.0, {s}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(fa).rate, 10.0);
  EXPECT_TRUE(net.flow(fa).bottlenecked_by_cap);
  EXPECT_DOUBLE_EQ(net.flow(fb).rate, 100.0);
  EXPECT_NO_THROW(net.check_invariants());
}

TEST(NetworkHardening, FlowIdTableStaysBoundedUnderChurn) {
  // Ids are recycled through a free-list: the id -> index table must stay
  // bounded by the concurrent high-water mark, not grow with every flow
  // ever created (it previously leaked one slot per add_flow forever).
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  for (int round = 0; round < 1000; ++round) {
    const FlowId a = net.add_flow({1.0, {r}});
    const FlowId b = net.add_flow({1.0, {r}});
    net.solve();
    net.remove_flow(a);
    net.remove_flow(b);
  }
  EXPECT_EQ(net.flow_count(), 0u);
  EXPECT_LE(net.id_table_size(), 2u);
}

TEST(NetworkHardening, RecycledIdsStayDistinct) {
  // Recycling must never hand out an id that is still live.
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  const FlowId a = net.add_flow({1.0, {r}});
  const FlowId b = net.add_flow({1.0, {r}});
  net.remove_flow(a);
  const FlowId c = net.add_flow({2.0, {r}});
  EXPECT_NE(c, b);
  EXPECT_TRUE(net.has_flow(b));
  EXPECT_TRUE(net.has_flow(c));
  EXPECT_FALSE(net.has_flow(a) && a != c);  // a's slot may be reused by c
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(b).rate, 50.0);
  EXPECT_DOUBLE_EQ(net.flow(c).rate, 50.0);
}

TEST(NetworkHardening, FlowIdsStayInCreationOrderAfterRecycling) {
  // flow_ids() documents creation order. It used to sort numerically,
  // which silently stopped being creation order once the free-list started
  // recycling retired ids: a recycled (numerically small) id belongs to the
  // *youngest* flow. Churn past the high-water mark and verify the order
  // tracks creation, not id value.
  Network net;
  const ResourceId r = net.add_resource("r", 100.0);
  std::vector<FlowId> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(net.add_flow({1.0, {r}}));
  for (int round = 0; round < 200; ++round) {
    // Retire the oldest and one from the middle, then admit replacements
    // (which recycle the retired ids).
    net.remove_flow(expect.front());
    expect.erase(expect.begin());
    net.remove_flow(expect[expect.size() / 2]);
    expect.erase(expect.begin() + static_cast<std::ptrdiff_t>(expect.size() / 2));
    expect.push_back(net.add_flow({1.0, {r}}));
    expect.push_back(net.add_flow({1.0, {r}}));
    ASSERT_EQ(net.flow_ids(), expect) << "round " << round;
  }
  // The order must also be what for_each_flow walks and what the solver
  // referees see: rates after churn agree with a fresh full re-solve.
  net.solve();
  net.check_invariants();
  std::vector<double> incremental;
  net.for_each_flow([&incremental](FlowId, const FlowState& st) {
    incremental.push_back(st.rate);
  });
  net.set_incremental(false);
  net.solve();
  std::size_t i = 0;
  net.for_each_flow([&](FlowId, const FlowState& st) {
    EXPECT_NEAR(st.rate, incremental[i], 1e-6 * st.rate + 1e-12);
    ++i;
  });
}

// -------------------------------------------------------- incremental solve

TEST(IncrementalSolve, UntouchedComponentKeepsConvergedRates) {
  Network net;
  const ResourceId a = net.add_resource("a", 100.0);
  const ResourceId b = net.add_resource("b", 60.0);
  const FlowId f1 = net.add_flow({1.0, {a}});
  const FlowId f2 = net.add_flow({1.0, {a}});
  const FlowId f3 = net.add_flow({1.0, {b}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f1).rate, 50.0);
  EXPECT_DOUBLE_EQ(net.flow(f3).rate, 60.0);

  // Mutating component {a} must re-solve it and leave {b} untouched but
  // still correct.
  net.remove_flow(f2);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f1).rate, 100.0);
  EXPECT_DOUBLE_EQ(net.flow(f3).rate, 60.0);
  net.check_invariants();
}

TEST(IncrementalSolve, SetCapacityRedirtiesItsComponent) {
  Network net;
  const ResourceId a = net.add_resource("a", 100.0);
  const ResourceId b = net.add_resource("b", 60.0);
  const FlowId f1 = net.add_flow({1.0, {a}});
  const FlowId f3 = net.add_flow({1.0, {b}});
  net.solve();
  net.set_capacity(a, 30.0);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f1).rate, 30.0);
  EXPECT_DOUBLE_EQ(net.flow(f3).rate, 60.0);
  net.check_invariants();
}

TEST(IncrementalSolve, ResolvedFlowCounterCountsOnlyTheDirtyComponent) {
  stats::MetricsRegistry metrics;
  obs::Sinks sinks;
  sinks.metrics = &metrics;
  Network net(sinks);
  const ResourceId a = net.add_resource("a", 100.0);
  const ResourceId b = net.add_resource("b", 60.0);
  net.add_flow({1.0, {a}});
  const FlowId f2 = net.add_flow({1.0, {a}});
  net.add_flow({1.0, {b}});
  net.solve();  // first solve is always full: 3 flows
  EXPECT_DOUBLE_EQ(metrics.counter("flow.solve_flows_resolved").value(), 3.0);
  net.remove_flow(f2);
  net.solve();  // only component {a} re-solves: 1 remaining flow
  EXPECT_DOUBLE_EQ(metrics.counter("flow.solve_flows_resolved").value(), 4.0);
}

TEST(IncrementalSolve, FullModeMatchesIncrementalOnSharedBottleneck) {
  // Two hosts coupled through a shared link: the dirty closure must pull in
  // the whole connected component, not just the directly touched resource.
  Network net;
  const ResourceId h0 = net.add_resource("h0", 100.0);
  const ResourceId h1 = net.add_resource("h1", 100.0);
  const ResourceId shared = net.add_resource("shared", 90.0);
  const FlowId f0 = net.add_flow({1.0, {h0, shared}});
  const FlowId f1 = net.add_flow({1.0, {h1, shared}});
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f0).rate, 45.0);
  // Adding a flow on h1 re-solves the whole component through `shared`.
  const FlowId f2 = net.add_flow({1.0, {h1}});
  net.solve();
  net.check_invariants();
  const double r0 = net.flow(f0).rate;
  const double r1 = net.flow(f1).rate;
  const double r2 = net.flow(f2).rate;
  net.set_incremental(false);
  net.solve();
  EXPECT_DOUBLE_EQ(net.flow(f0).rate, r0);
  EXPECT_DOUBLE_EQ(net.flow(f1).rate, r1);
  EXPECT_DOUBLE_EQ(net.flow(f2).rate, r2);
}

}  // namespace
}  // namespace bbsim::flow
