// Tests of the fuzz subsystem itself: scenario sampling determinism,
// fuzzcase JSON round-tripping, clean campaigns on the shipped engine,
// and the self-test that a perturbed engine is caught and the failing
// case minimized down to a handful of tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fuzz/minimize.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "json/json.hpp"
#include "resil/fault.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bbsim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------- sampling

TEST(Sampler, SameSeedSameScenario) {
  util::Rng a(7), b(7);
  const fuzz::Scenario sa = fuzz::sample_scenario(a);
  const fuzz::Scenario sb = fuzz::sample_scenario(b);
  EXPECT_EQ(sa.to_json().dump(2), sb.to_json().dump(2));
}

TEST(Sampler, DifferentSeedsDiffer) {
  util::Rng a(7), b(8);
  const fuzz::Scenario sa = fuzz::sample_scenario(a);
  const fuzz::Scenario sb = fuzz::sample_scenario(b);
  EXPECT_NE(sa.to_json().dump(2), sb.to_json().dump(2));
}

TEST(Sampler, ScenariosAreFeasible) {
  util::Rng root(11);
  for (int i = 0; i < 20; ++i) {
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const fuzz::Scenario sc = fuzz::sample_scenario(rng);
    EXPECT_GT(sc.workflow.task_count(), 0u);
    EXPECT_FALSE(sc.platform.hosts.empty());
    // Every task's core request fits the largest host.
    int max_cores = 0;
    for (const auto& h : sc.platform.hosts) max_cores = std::max(max_cores, h.cores);
    for (const wf::Task& t : sc.workflow.tasks())
      EXPECT_LE(t.requested_cores, max_cores) << t.name;
  }
}

// ----------------------------------------------------------- round-trip

TEST(Fuzzcase, JsonRoundTripIsByteIdentical) {
  util::Rng root(23);
  for (int i = 0; i < 10; ++i) {
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const fuzz::Scenario sc = fuzz::sample_scenario(rng);
    const std::string once = sc.to_json().dump(2);
    const fuzz::Scenario back = fuzz::scenario_from_json(json::parse(once));
    EXPECT_EQ(back.to_json().dump(2), once) << "iter " << i;
  }
}

TEST(Fuzzcase, RoundTripPreservesOutcome) {
  util::Rng rng(31);
  const fuzz::Scenario sc = fuzz::sample_scenario(rng);
  const fuzz::Scenario back = fuzz::scenario_from_json(sc.to_json());
  const auto a = fuzz::run_scenario(sc);
  const auto b = fuzz::run_scenario(back);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.engine_error, b.engine_error);
}

TEST(Fuzzcase, RejectsWrongSchema) {
  json::Object doc;
  doc.set("schema", "bbsim.run.v1");
  EXPECT_THROW(fuzz::scenario_from_json(json::Value(std::move(doc))),
               util::Error);
}

TEST(Fuzzcase, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bbsim_fuzzcase_rt.json";
  util::Rng rng(37);
  const fuzz::Scenario sc = fuzz::sample_scenario(rng);
  json::write_file(path, sc.to_json());
  const fuzz::Scenario back = fuzz::scenario_from_file(path);
  EXPECT_EQ(back.to_json().dump(2), sc.to_json().dump(2));
  std::remove(path.c_str());
}

// ------------------------------------------------------------ campaigns

TEST(Campaign, ShippedEngineIsCleanAndDeterministic) {
  fuzz::CampaignOptions opt;
  opt.seed = 42;
  opt.iterations = 40;
  const auto first = fuzz::run_campaign(opt);
  EXPECT_TRUE(first.clean())
      << first.failures.front().divergences.front().describe();
  EXPECT_EQ(first.iterations_run, 40);
  const auto second = fuzz::run_campaign(opt);
  EXPECT_EQ(second.clean(), first.clean());
  EXPECT_EQ(second.iterations_run, first.iterations_run);
}

TEST(Campaign, PerturbedEngineIsCaughtAndMinimized) {
  fuzz::CampaignOptions opt;
  opt.seed = 42;
  opt.iterations = 50;
  opt.run.engine_bb_capacity_scale = 0.5;
  opt.max_failures = 1;
  const std::string dir = ::testing::TempDir();
  opt.out_dir = dir;
  const auto result = fuzz::run_campaign(opt);
  ASSERT_FALSE(result.clean());
  const auto& failure = result.failures.front();
  EXPECT_FALSE(failure.divergences.empty());
  // Acceptance criterion: the minimizer shrinks the repro to <= 5 tasks.
  EXPECT_LE(failure.minimized.workflow.task_count(), 5u);
  // The written fuzzcase replays: same divergence under the perturbation,
  // no divergence on the unperturbed engine.
  ASSERT_FALSE(failure.written_path.empty());
  const auto replayed = fuzz::replay_case_file(failure.written_path, opt.run);
  EXPECT_TRUE(replayed.diverged);
  const auto clean_replay = fuzz::replay_case_file(failure.written_path);
  EXPECT_FALSE(clean_replay.diverged);
  // The file itself carries the schema tag.
  const json::Value doc = json::parse(slurp(failure.written_path));
  EXPECT_EQ(doc.at("schema").as_string(), fuzz::kFuzzcaseSchema);
  std::remove(failure.written_path.c_str());
}

// ----------------------------------------------------------------- resil

TEST(ResilFuzz, CocktailSamplerIsDeterministicAndArmed) {
  util::Rng a(5), b(5);
  const fuzz::Scenario sa = fuzz::sample_resil_scenario(a);
  const fuzz::Scenario sb = fuzz::sample_resil_scenario(b);
  EXPECT_EQ(sa.to_json().dump(2), sb.to_json().dump(2));
  // Every cocktail pins a seed and a horizon (the termination guarantee),
  // and both specs must parse under the resil grammar.
  ASSERT_FALSE(sa.config.fault_spec.empty());
  EXPECT_NE(sa.config.fault_spec.find("seed="), std::string::npos);
  EXPECT_NE(sa.config.fault_spec.find("horizon="), std::string::npos);
  EXPECT_NO_THROW((void)resil::FaultSpec::parse(sa.config.fault_spec));
  EXPECT_NO_THROW((void)resil::CheckpointSpec::parse(sa.config.checkpoint_spec));
}

TEST(ResilFuzz, CocktailSometimesArmsEachIngredient) {
  // Over a modest seed range the cocktail should hit node faults, tier
  // windows and both checkpoint modes -- otherwise the fuzzer has a blind
  // spot. Counted over forks of one root so the test stays deterministic.
  int node = 0, bb = 0, pfs = 0, interval = 0, daly = 0;
  util::Rng root(77);
  for (int i = 0; i < 60; ++i) {
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const fuzz::Scenario sc = fuzz::sample_resil_scenario(rng);
    if (sc.config.fault_spec.find("node_mtbf=") != std::string::npos) ++node;
    if (sc.config.fault_spec.find("bb_mtbf=") != std::string::npos) ++bb;
    if (sc.config.fault_spec.find("pfs_mtbf=") != std::string::npos) ++pfs;
    if (sc.config.checkpoint_spec.find("interval=") != std::string::npos)
      ++interval;
    if (sc.config.checkpoint_spec.find("daly") != std::string::npos) ++daly;
  }
  EXPECT_GT(node, 0);
  EXPECT_GT(bb, 0);
  EXPECT_GT(pfs, 0);
  EXPECT_GT(interval, 0);
  EXPECT_GT(daly, 0);
}

TEST(ResilFuzz, SpecsRoundTripAndStayAbsentWhenEmpty) {
  // Plain scenarios must not grow "faults"/"checkpoint" keys: pre-resil
  // corpus files stay byte-stable through load/save.
  util::Rng plain_rng(9);
  const fuzz::Scenario plain = fuzz::sample_scenario(plain_rng);
  const std::string plain_doc = plain.to_json().dump(2);
  EXPECT_EQ(plain_doc.find("\"faults\""), std::string::npos);
  EXPECT_EQ(plain_doc.find("\"checkpoint\""), std::string::npos);

  util::Rng armed_rng(5);
  const fuzz::Scenario armed = fuzz::sample_resil_scenario(armed_rng);
  const fuzz::Scenario back = fuzz::scenario_from_json(armed.to_json());
  EXPECT_EQ(back.config.fault_spec, armed.config.fault_spec);
  EXPECT_EQ(back.config.checkpoint_spec, armed.config.checkpoint_spec);
  EXPECT_EQ(back.to_json().dump(2), armed.to_json().dump(2));
}

TEST(ResilFuzz, BatteryPassesOnArmedScenario) {
  // run_scenario dispatches armed scenarios to the invariant battery; a
  // shipped engine must come back clean, and repeatably so.
  util::Rng rng(5);
  const fuzz::Scenario sc = fuzz::sample_resil_scenario(rng);
  const auto first = fuzz::run_scenario(sc);
  EXPECT_FALSE(first.diverged)
      << first.divergences.front().describe();
  util::Rng rng2(5);
  const auto second = fuzz::run_scenario(fuzz::sample_resil_scenario(rng2));
  EXPECT_EQ(second.diverged, first.diverged);
}

TEST(ResilFuzz, CocktailCampaignOnShippedEngineIsClean) {
  fuzz::CampaignOptions opt;
  opt.seed = 7;
  opt.iterations = 12;
  opt.resil_cocktail = true;
  const auto result = fuzz::run_campaign(opt);
  EXPECT_TRUE(result.clean())
      << result.failures.front().divergences.front().describe();
  EXPECT_EQ(result.iterations_run, 12);
}

TEST(Minimizer, KeepsReproAndShrinks) {
  // Find a failing scenario under perturbation, then minimize by hand and
  // check the invariants the campaign relies on.
  fuzz::RunOptions perturbed;
  perturbed.engine_bb_capacity_scale = 0.5;
  util::Rng root(42);
  for (int i = 0; i < 50; ++i) {
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const fuzz::Scenario sc = fuzz::sample_scenario(rng);
    const auto outcome = fuzz::run_scenario(sc, perturbed);
    if (!outcome.diverged) continue;
    const fuzz::Scenario small = fuzz::minimize_scenario(sc, perturbed);
    EXPECT_LE(small.workflow.task_count(), sc.workflow.task_count());
    EXPECT_TRUE(fuzz::run_scenario(small, perturbed).diverged);
    small.workflow.validate();  // still a legal workflow
    return;
  }
  FAIL() << "perturbation produced no divergence in 50 scenarios";
}

}  // namespace
}  // namespace bbsim
