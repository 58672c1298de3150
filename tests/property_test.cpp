// Property tests: cross-module invariants on randomized scenarios.
//
//  * flow layer: work conservation and bandwidth bounds under random timed
//    arrivals;
//  * execution engine: analytic lower bounds, record consistency and
//    determinism on random DAGs over all three platform models;
//  * storage: operation time never beats the physical bottleneck.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "exec/engine.hpp"
#include "flow/manager.hpp"
#include "fuzz/runner.hpp"
#include "model/calibration.hpp"
#include "platform/presets.hpp"
#include "storage/system.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"
#include "workflow/random_dag.hpp"

namespace bbsim {
namespace {

// -------------------------------------------------------------- flow layer

class FlowTimedProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowTimedProperty, WorkConservationUnderRandomArrivals) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  sim::Engine engine;
  flow::FlowManager fm(engine);

  const int n_res = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<flow::ResourceId> resources;
  double min_capacity = 1e18;
  for (int i = 0; i < n_res; ++i) {
    const double cap = rng.uniform(10.0, 500.0);
    min_capacity = std::min(min_capacity, cap);
    resources.push_back(fm.network().add_resource("r" + std::to_string(i), cap));
  }

  const int n_flows = static_cast<int>(rng.uniform_int(1, 30));
  std::map<flow::ResourceId, double> expected_bytes;  // volume per traversal
  double last_arrival = 0.0;
  int completed = 0;
  for (int i = 0; i < n_flows; ++i) {
    flow::FlowSpec spec;
    spec.volume = rng.uniform(1.0, 2000.0);
    const int hops = static_cast<int>(rng.uniform_int(1, n_res));
    for (int h = 0; h < hops; ++h) {
      spec.path.push_back(resources[static_cast<std::size_t>(
          rng.uniform_int(0, n_res - 1))]);
    }
    if (rng.chance(0.3)) spec.rate_cap = rng.uniform(5.0, 100.0);
    for (const flow::ResourceId r : spec.path) expected_bytes[r] += spec.volume;
    const double arrival = rng.uniform(0.0, 50.0);
    last_arrival = std::max(last_arrival, arrival);
    engine.schedule_at(arrival, [&fm, spec, &completed] {
      fm.start(spec, [&completed] { ++completed; });
    });
  }

  const double finish = engine.run();
  EXPECT_EQ(completed, n_flows);
  EXPECT_EQ(fm.active_count(), 0u);

  // Work conservation: bytes accounted on each resource match the volumes
  // of the flows that crossed it (once per traversal), and nothing finishes
  // before physics allows.
  for (const flow::ResourceId r : resources) {
    EXPECT_NEAR(fm.network().resource(r).bytes_served, expected_bytes[r],
                1e-6 * std::max(1.0, expected_bytes[r]) + 1e-3)
        << "resource " << r;
  }
  // The busiest resource cannot have delivered faster than its capacity.
  for (const flow::ResourceId r : resources) {
    const auto& res = fm.network().resource(r);
    if (res.busy_time > 0) {
      EXPECT_LE(res.bytes_served / res.busy_time, res.capacity * (1 + 1e-6))
          << "resource over-delivered";
    }
  }
  EXPECT_GE(finish, last_arrival);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTimedProperty, ::testing::Range(0, 30));

// ---------------------------------------------------------------- engine

class EngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(EngineProperty, RandomDagsRespectBoundsOnAllPlatforms) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  wf::RandomDagConfig cfg;
  cfg.levels = static_cast<int>(rng.uniform_int(1, 5));
  cfg.max_width = 6;
  cfg.max_requested_cores = 4;
  const wf::Workflow w = wf::make_random_layered(cfg, rng);

  for (const auto system :
       {testbed::System::CoriPrivate, testbed::System::CoriStriped,
        testbed::System::Summit}) {
    const platform::PlatformSpec plat = testbed::paper_platform(system, 2);
    exec::ExecutionConfig ecfg;
    ecfg.placement = exec::all_bb_policy();
    ecfg.stage_in_mode = exec::StageInMode::Instant;
    exec::Simulation sim(plat, w, ecfg);
    const exec::Result r = sim.run();

    // All tasks ran, with consistent per-task phases.
    ASSERT_EQ(r.tasks.size(), w.task_count());
    double compute_lower_bound = 0.0;  // critical path of compute times
    std::map<std::string, double> finish_at_least;
    for (const wf::TaskId id : w.topological_order()) {
      const wf::Task& t = w.task(id);
      const std::string& name = t.name;
      const double t_seq = t.flops / plat.hosts[0].core_speed;
      const double compute =
          model::amdahl_time(t_seq, r.tasks.at(name).cores, t.alpha);
      double start = 0.0;
      for (const wf::TaskId p : w.parents(id)) {
        start = std::max(start, finish_at_least[w.task(p).name]);
      }
      finish_at_least[name] = start + compute;
      compute_lower_bound = std::max(compute_lower_bound, finish_at_least[name]);

      const exec::TaskRecord& rec = r.tasks.at(name);
      EXPECT_LE(rec.t_ready, rec.t_start + 1e-9) << name;
      EXPECT_LE(rec.t_start, rec.t_reads_done + 1e-9) << name;
      EXPECT_LE(rec.t_reads_done, rec.t_compute_done + 1e-9) << name;
      EXPECT_LE(rec.t_compute_done, rec.t_end + 1e-9) << name;
      EXPECT_GE(rec.compute_time(), compute - 1e-6) << name;
    }
    EXPECT_GE(r.makespan, compute_lower_bound - 1e-6) << to_string(system);

    // Parents complete before children start.
    for (wf::TaskId id = 0; id < w.task_count(); ++id) {
      const std::string& name = w.task(id).name;
      for (const wf::TaskId parent : w.parents(id)) {
        const std::string& p = w.task(parent).name;
        EXPECT_LE(r.tasks.at(p).t_end, r.tasks.at(name).t_start + 1e-9)
            << p << " -> " << name;
      }
    }
    sim.fabric().flows().check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Range(0, 12));

TEST(EngineDeterminism, IdenticalRunsProduceIdenticalResults) {
  util::Rng rng(77);
  const wf::Workflow w = wf::make_random_layered({}, rng);
  auto run = [&w] {
    exec::ExecutionConfig cfg;
    cfg.placement = exec::all_bb_policy();
    exec::Simulation sim(testbed::paper_platform(testbed::System::CoriPrivate, 2), w,
                         cfg);
    return sim.run();
  };
  const exec::Result a = run();
  const exec::Result b = run();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  for (const auto& [name, rec] : a.tasks) {
    EXPECT_DOUBLE_EQ(rec.t_start, b.tasks.at(name).t_start) << name;
    EXPECT_DOUBLE_EQ(rec.t_end, b.tasks.at(name).t_end) << name;
    EXPECT_EQ(rec.host, b.tasks.at(name).host) << name;
  }
}

// --------------------------------------------------------------- storage

class StorageProperty : public ::testing::TestWithParam<int> {};

TEST_P(StorageProperty, OperationTimeNeverBeatsBottleneck) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  for (const auto system :
       {testbed::System::CoriPrivate, testbed::System::CoriStriped,
        testbed::System::Summit}) {
    platform::Fabric fabric(testbed::paper_platform(system));
    storage::StorageSystem sys(fabric);
    storage::StorageService* bb = sys.burst_buffer();
    ASSERT_NE(bb, nullptr);

    const double size = rng.uniform(1e6, 1e9);
    double write_done = -1;
    bb->write({0, size, "f"}, 0, [&] { write_done = fabric.engine().now(); });
    fabric.engine().run();
    ASSERT_GT(write_done, 0.0);
    const auto& spec = bb->spec();
    // Aggregate write bandwidth bound across BB nodes.
    const double peak = spec.disk.write_bw * spec.num_nodes;
    EXPECT_GE(write_done, size / peak - 1e-6);

    const double start = fabric.engine().now();
    double read_done = -1;
    bb->read({0, size, "f"}, 0, [&] { read_done = fabric.engine().now(); });
    fabric.engine().run();
    EXPECT_GE(read_done - start, size / (spec.disk.read_bw * spec.num_nodes) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageProperty, ::testing::Range(0, 10));

// ------------------------------------------------ incremental solver churn

TEST(IncrementalSolverProperty, MatchesFullResolveAndOracleUnderChurn) {
  // 500 fuzz-sampled mutation sequences (add_flow / remove_flow of
  // arbitrary live flows / set_capacity mid-run); after every mutation the
  // incremental solve must agree with an immediate full re-solve AND the
  // long-double oracle within 1e-6. Arbitrary-victim removals force the
  // free-list to recycle ids under younger survivors -- the recycled-id
  // churn that broke creation ordering.
  const fuzz::SolverCampaignResult result =
      fuzz::run_solver_churn_campaign(20260809, 500, 1e-6);
  EXPECT_EQ(result.iterations_run, 500);
  EXPECT_TRUE(result.clean()) << result.first_divergence;
}

}  // namespace
}  // namespace bbsim
