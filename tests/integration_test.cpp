// Integration tests: full paper methodology end-to-end -- testbed
// characterization, Eq (4) calibration, simple-model prediction, error
// computation -- plus case-study smoke runs.
#include <gtest/gtest.h>

#include "analysis/stats.hpp"
#include "exec/engine.hpp"
#include "model/calibration.hpp"
#include "testbed/testbed.hpp"
#include "workflow/genomes.hpp"
#include "workflow/swarp.hpp"

namespace bbsim {
namespace {

using exec::ExecutionConfig;
using exec::FractionPolicy;
using exec::Simulation;
using exec::Tier;
using testbed::System;
using testbed::Testbed;
using testbed::TestbedOptions;

/// Calibrate from testbed observations and predict with the simple model --
/// the complete Section IV-B pipeline. Returns the pipeline span (the
/// quantity Figure 10 compares; stage-in cost is Figure 4's experiment).
double predict_with_simple_model(System system, const wf::Workflow& workflow,
                                 const std::map<std::string, model::TaskObservation>& obs,
                                 const ExecutionConfig& cfg) {
  wf::Workflow calibrated = workflow;
  const platform::PlatformSpec plat = testbed::paper_platform(system);
  model::calibrate_workflow(calibrated, obs, plat.hosts[0].core_speed);
  Simulation sim(plat, calibrated, cfg);
  return sim.run().workflow_span;
}

/// Mean measured pipeline span over repetitions.
double mean_span(const std::vector<exec::Result>& results) {
  std::vector<double> spans;
  for (const exec::Result& r : results) spans.push_back(r.workflow_span);
  return analysis::describe(spans).mean;
}

TEST(Validation, SimpleModelTracksTestbedForPrivateMode) {
  // Reference scenario: 1 pipeline, 32 cores, everything in the BB.
  const wf::Workflow w = wf::make_swarp({});
  ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();

  TestbedOptions opt;
  opt.repetitions = 5;
  Testbed tb(System::CoriPrivate, opt);
  const auto measured = tb.run_repetitions(w, cfg);
  const auto obs = Testbed::observations(measured);
  const double measured_mean = mean_span(measured);

  const double predicted = predict_with_simple_model(System::CoriPrivate, w, obs, cfg);
  // The paper reports ~5.6% average error for the private mode; accept a
  // loose envelope here (the tight numbers live in the benches).
  EXPECT_LT(analysis::relative_error(predicted, measured_mean), 0.35)
      << "predicted=" << predicted << " measured=" << measured_mean;
}

TEST(Validation, SimpleModelTracksTestbedForSummit) {
  const wf::Workflow w = wf::make_swarp({});
  ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  TestbedOptions opt;
  opt.repetitions = 5;
  Testbed tb(System::Summit, opt);
  const auto measured = tb.run_repetitions(w, cfg);
  const auto obs = Testbed::observations(measured);
  const double measured_mean = mean_span(measured);
  const double predicted = predict_with_simple_model(System::Summit, w, obs, cfg);
  EXPECT_LT(analysis::relative_error(predicted, measured_mean), 0.35);
}

TEST(Validation, MoreStagingIsFasterInSimpleModel) {
  // Paper Figure 10 discussion: "the simulator behaves as expected, the
  // more the workflow uses burst buffers the faster it runs". The figure
  // plots the pipeline span (the stage-in cost is Figure 4's experiment),
  // so the monotonicity property applies to the span excluding stage-in.
  const wf::Workflow w = wf::make_swarp({});
  double previous = 1e100;
  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    ExecutionConfig cfg;
    cfg.placement = std::make_shared<FractionPolicy>(fraction, Tier::BurstBuffer);
    Simulation sim(testbed::paper_platform(System::CoriPrivate), w, cfg);
    const double span = sim.run().workflow_span;
    EXPECT_LE(span, previous * 1.0001) << "fraction=" << fraction;
    previous = span;
  }
}

TEST(Validation, ContentionGrowsWithPipelines) {
  // Paper Figures 7/11: concurrent pipelines contend for the BB.
  auto run = [](int pipelines) {
    wf::SwarpConfig scfg;
    scfg.pipelines = pipelines;
    scfg.cores_per_task = 1;
    const wf::Workflow w = wf::make_swarp(scfg);
    ExecutionConfig cfg;
    cfg.placement = exec::all_bb_policy();
    TestbedOptions opt;
    opt.repetitions = 1;
    opt.noise = false;
    Testbed tb(System::CoriPrivate, opt);
    const auto results = tb.run_repetitions(w, cfg);
    return Testbed::summarize(results).duration_by_type.at("resample").mean;
  };
  const double solo = run(1);
  const double crowded = run(32);
  EXPECT_GT(crowded, solo * 1.3);
}

TEST(CaseStudy, GenomesRunsOnBothPlatforms) {
  // Small instance (2 chromosomes) for test speed.
  wf::GenomesConfig gcfg;
  gcfg.chromosomes = 2;
  const wf::Workflow w = wf::make_1000genomes(gcfg);

  for (const System system : {System::CoriPrivate, System::Summit}) {
    ExecutionConfig cfg;
    cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
    cfg.stage_in_mode = exec::StageInMode::Instant;
    platform::PlatformSpec plat = testbed::paper_platform(system, 4);
    Simulation sim(std::move(plat), w, cfg);
    const exec::Result r = sim.run();
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_EQ(r.tasks.size(), w.task_count());
  }
}

TEST(CaseStudy, GenomesStagingImprovesMakespan) {
  wf::GenomesConfig gcfg;
  gcfg.chromosomes = 2;
  const wf::Workflow w = wf::make_1000genomes(gcfg);
  auto run = [&](double fraction) {
    ExecutionConfig cfg;
    cfg.placement = std::make_shared<FractionPolicy>(fraction, Tier::BurstBuffer);
    cfg.stage_in_mode = exec::StageInMode::Instant;
    Simulation sim(testbed::paper_platform(System::CoriPrivate, 4), w, cfg);
    return sim.run().makespan;
  };
  EXPECT_LT(run(1.0), run(0.0));
}

TEST(CaseStudy, SummitBeatsCoriOnGenomes) {
  // Paper Figure 13: "Summit outperforms Cori mainly due to its larger BB
  // bandwidth".
  wf::GenomesConfig gcfg;
  gcfg.chromosomes = 2;
  const wf::Workflow w = wf::make_1000genomes(gcfg);
  auto run = [&](System system) {
    ExecutionConfig cfg;
    cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
    cfg.stage_in_mode = exec::StageInMode::Instant;
    Simulation sim(testbed::paper_platform(system, 4), w, cfg);
    return sim.run().makespan;
  };
  EXPECT_LT(run(System::Summit), run(System::CoriPrivate));
}

TEST(Invariants, MakespanRespectsLowerBounds) {
  // Makespan >= critical path compute time; >= total flops / machine flops.
  const wf::Workflow w = wf::make_swarp({.pipelines = 4});
  ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const platform::PlatformSpec plat = testbed::paper_platform(System::CoriPrivate);
  Simulation sim(plat, w, cfg);
  const exec::Result r = sim.run();
  const double machine_flops =
      plat.hosts[0].core_speed * plat.hosts[0].cores * plat.hosts.size();
  EXPECT_GE(r.makespan, w.total_flops() / machine_flops - 1e-6);
  // Work conservation in the flow layer held throughout (spot check).
  sim.fabric().flows().check_invariants();
}

TEST(Invariants, TaskRecordsAreConsistent) {
  const wf::Workflow w = wf::make_swarp({.pipelines = 2});
  ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  Simulation sim(testbed::paper_platform(System::Summit), w, cfg);
  const exec::Result r = sim.run();
  for (const auto& [name, rec] : r.tasks) {
    EXPECT_LE(rec.t_ready, rec.t_start) << name;
    EXPECT_LE(rec.t_start, rec.t_reads_done) << name;
    EXPECT_LE(rec.t_reads_done, rec.t_compute_done) << name;
    EXPECT_LE(rec.t_compute_done, rec.t_end) << name;
    EXPECT_GE(rec.lambda_io(), 0.0) << name;
    EXPECT_LE(rec.lambda_io(), 1.0) << name;
  }
}

TEST(Invariants, StorageNeverExceedsCapacity) {
  const wf::Workflow w = wf::make_swarp({.pipelines = 2});
  ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  Simulation sim(testbed::testbed_platform(System::CoriPrivate, {}), w, cfg);
  sim.run();
  const storage::StorageService* bb = sim.storage().burst_buffer();
  EXPECT_LE(bb->used_bytes(), bb->total_capacity());
}

}  // namespace
}  // namespace bbsim
