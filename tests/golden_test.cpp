// Golden regression tests: exact end-to-end makespans for fixed scenarios.
//
// These pin the simulator's observable behaviour. A change that moves any
// of these numbers is a *model change* and must be deliberate: re-derive
// the value, update the constant, and record the reason in the commit.
// (Values were captured from the deterministic engine; they are exact up to
// floating-point noise, hence the 1e-6 relative tolerance.)
#include <gtest/gtest.h>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "exec/engine.hpp"
#include "testbed/testbed.hpp"
#include "workflow/genomes.hpp"
#include "workflow/swarp.hpp"

namespace bbsim {
namespace {

double run_scenario(const cli::CliOptions& opt) {
  exec::ExecutionConfig cfg;
  cfg.placement = cli::make_policy(opt.policy);
  cfg.stage_in_mode = opt.stage_in;
  exec::Simulation sim(cli::resolve_platform(opt), cli::resolve_workflow(opt), cfg);
  return sim.run().makespan;
}

TEST(Golden, SwarpTwoPipelinesCoriPrivateAllBB) {
  cli::CliOptions opt;
  opt.pipelines = 2;
  EXPECT_NEAR(run_scenario(opt) / 96.187191, 1.0, 1e-6);
}

TEST(Golden, SwarpStripedHalfStaged) {
  cli::CliOptions opt;
  opt.bb_mode = platform::BBMode::Striped;
  opt.policy = "fraction:0.5";
  EXPECT_NEAR(run_scenario(opt) / 47.075213, 1.0, 1e-6);
}

TEST(Golden, GenomesOneChromosomeSummitInstant) {
  cli::CliOptions opt;
  opt.platform = "summit";
  opt.workflow = "genomes";
  opt.chromosomes = 1;
  opt.nodes = 2;
  opt.stage_in = exec::StageInMode::Instant;
  EXPECT_NEAR(run_scenario(opt) / 374.948991, 1.0, 1e-6);
}

TEST(Golden, TestbedNoiselessSwarpIsStable) {
  // The noiseless emulator is deterministic end to end.
  testbed::TestbedOptions opt;
  opt.noise = false;
  opt.repetitions = 1;
  const testbed::Testbed tb(testbed::System::CoriPrivate, opt);
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto results = tb.run_repetitions(wf::make_swarp({}), cfg);
  // Pin only coarse structure (exact value is asserted by re-running).
  const double again =
      tb.run_repetitions(wf::make_swarp({}), cfg).front().makespan;
  EXPECT_DOUBLE_EQ(results.front().makespan, again);
  EXPECT_GT(results.front().stage_in_duration, 0.0);
}

}  // namespace
}  // namespace bbsim
