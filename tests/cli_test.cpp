// Unit tests for the command-line option parser and resolvers.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "json/json.hpp"
#include "testbed/testbed.hpp"
#include "util/error.hpp"

namespace bbsim::cli {
namespace {

using util::ConfigError;

TEST(CliParse, Defaults) {
  const CliOptions opt = parse_cli({});
  EXPECT_EQ(opt.platform, "cori");
  EXPECT_EQ(opt.workflow, "swarp");
  EXPECT_EQ(opt.policy, "all_bb");
  EXPECT_EQ(opt.nodes, 1);
  EXPECT_EQ(opt.repetitions, 1);
  EXPECT_FALSE(opt.testbed_system.has_value());
  EXPECT_FALSE(opt.help);
}

TEST(CliParse, AllFlagsRoundTrip) {
  const CliOptions opt = parse_cli(
      {"--platform", "summit", "--nodes", "4", "--workflow", "genomes",
       "--chromosomes", "2", "--policy", "fraction:0.5", "--scheduler",
       "critical_path", "--stage-in", "instant", "--stage-out", "--evict",
       "--testbed", "summit", "--reps", "5", "--seed", "7", "--trace", "t.json",
       "--csv", "t.csv", "--dot", "t.dot", "--gantt", "--quiet"});
  EXPECT_EQ(opt.platform, "summit");
  EXPECT_EQ(opt.nodes, 4);
  EXPECT_EQ(opt.workflow, "genomes");
  EXPECT_EQ(opt.chromosomes, 2);
  EXPECT_EQ(opt.policy, "fraction:0.5");
  EXPECT_EQ(opt.scheduler, exec::SchedulerPolicy::CriticalPathFirst);
  EXPECT_EQ(opt.stage_in, exec::StageInMode::Instant);
  EXPECT_TRUE(opt.stage_out);
  EXPECT_TRUE(opt.evict);
  ASSERT_TRUE(opt.testbed_system.has_value());
  EXPECT_EQ(*opt.testbed_system, testbed::System::Summit);
  EXPECT_EQ(opt.repetitions, 5);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.trace_path, "t.json");
  EXPECT_EQ(opt.csv_path, "t.csv");
  EXPECT_EQ(opt.dot_path, "t.dot");
  EXPECT_TRUE(opt.gantt);
  EXPECT_TRUE(opt.quiet);
}

TEST(CliParse, BbModeParsing) {
  EXPECT_EQ(parse_cli({"--bb-mode", "striped"}).bb_mode, platform::BBMode::Striped);
  EXPECT_EQ(parse_cli({"--bb-mode", "private"}).bb_mode, platform::BBMode::Private);
  EXPECT_THROW(parse_cli({"--bb-mode", "weird"}), ConfigError);
}

TEST(CliParse, Errors) {
  EXPECT_THROW(parse_cli({"--bogus"}), ConfigError);
  EXPECT_THROW(parse_cli({"--nodes"}), ConfigError);       // missing value
  EXPECT_THROW(parse_cli({"--nodes", "0"}), ConfigError);  // invalid value
  EXPECT_THROW(parse_cli({"--reps", "0"}), ConfigError);
  EXPECT_THROW(parse_cli({"--policy", "nope"}), ConfigError);
  EXPECT_THROW(parse_cli({"--scheduler", "nope"}), ConfigError);
  EXPECT_THROW(parse_cli({"--stage-in", "nope"}), ConfigError);
  EXPECT_THROW(parse_cli({"--testbed", "nope"}), ConfigError);
  // A number must be all of the value, whole where the flag counts things,
  // and unsigned for a seed; the error names the flag.
  const std::vector<std::vector<std::string>> malformed = {
      {"--pipelines", "2x"}, {"--seed", "12abc"}, {"--reps", "2.9"},
      {"--nodes", "abc"},    {"--seed", "-1"},    {"--stage-width", ""},
      {"--cores", "99999999999"}};
  for (const std::vector<std::string>& args : malformed) {
    try {
      (void)parse_cli(args);
      ADD_FAILURE() << args[0] << " '" << args[1] << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(args[0]), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(parse_cli({"--policy", "fraction:0.5x"}), ConfigError);
}

TEST(CliParse, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).help);
  EXPECT_TRUE(parse_cli({"-h"}).help);
  EXPECT_NE(usage().find("--policy"), std::string::npos);
}

TEST(CliPolicy, SpecsResolve) {
  EXPECT_NE(make_policy("all_pfs")->name().find("0%"), std::string::npos);
  EXPECT_NE(make_policy("all_bb")->name().find("100%"), std::string::npos);
  EXPECT_NE(make_policy("fraction:0.25")->name().find("25%"), std::string::npos);
  EXPECT_NE(make_policy("size:64MB")->name().find("64"), std::string::npos);
  EXPECT_NE(make_policy("size_inv:64MB")->name().find(">"), std::string::npos);
  EXPECT_NE(make_policy("locality")->name().find("locality"), std::string::npos);
  EXPECT_NE(make_policy("greedy:4GB")->name().find("4.0GB"), std::string::npos);
  EXPECT_THROW(make_policy("fraction"), ConfigError);
  EXPECT_THROW(make_policy("greedy"), ConfigError);
  EXPECT_THROW(make_policy("fraction:0.5x"), ConfigError);
  EXPECT_THROW(make_policy("fraction:abc"), ConfigError);
  EXPECT_THROW(make_policy("fraction:nan"), ConfigError);
}

TEST(CliResolve, PlatformPresets) {
  CliOptions opt;
  opt.platform = "summit";
  opt.nodes = 3;
  const auto plat = resolve_platform(opt);
  EXPECT_EQ(plat.name, "summit");
  EXPECT_EQ(plat.hosts.size(), 3u);

  opt.platform = "cori";
  opt.bb_mode = platform::BBMode::Striped;
  const auto cori = resolve_platform(opt);
  EXPECT_EQ(cori.storage[cori.find_kind(platform::StorageKind::SharedBB)].mode,
            platform::BBMode::Striped);
}

TEST(CliResolve, TestbedOverridesPlatform) {
  CliOptions opt;
  opt.testbed_system = testbed::System::CoriStriped;
  const auto plat = resolve_platform(opt);
  // Testbed platforms carry fidelity overlays.
  const auto& bb = plat.storage[plat.find_kind(platform::StorageKind::SharedBB)];
  EXPECT_LT(bb.metadata_ops_per_sec, platform::kUnlimited);
}

TEST(CliResolve, WorkflowGenerators) {
  CliOptions opt;
  opt.workflow = "swarp";
  opt.pipelines = 3;
  EXPECT_EQ(resolve_workflow(opt).task_count(), 7u);
  opt.workflow = "genomes";
  opt.chromosomes = 1;
  EXPECT_EQ(resolve_workflow(opt).task_count(), 42u);
  opt.workflow = "/nonexistent.json";
  EXPECT_THROW(resolve_workflow(opt), util::ParseError);
}

TEST(CliResolve, CoresOverrideAppliesToSwarp) {
  CliOptions opt;
  opt.workflow = "swarp";
  opt.cores = 8;
  const auto w = resolve_workflow(opt);
  EXPECT_EQ(w.task("resample_000").requested_cores, 8);
}

}  // namespace
}  // namespace bbsim::cli

namespace cluster_flag_tests {

using namespace bbsim;

TEST(CliParse, ClusterFlag) {
  EXPECT_TRUE(cli::parse_cli({"--cluster"}).cluster);
  EXPECT_FALSE(cli::parse_cli({}).cluster);
}

TEST(RunCliCluster, ClusteredRunSucceeds) {
  cli::CliOptions opt;
  opt.cluster = true;
  opt.pipelines = 2;
  opt.quiet = true;
  EXPECT_EQ(cli::run_cli(opt), 0);
}

/// run_cli's --trace document for `opt`.
json::Value traced_run(cli::CliOptions opt, const std::string& name) {
  opt.quiet = true;
  opt.trace_path = ::testing::TempDir() + "/bbsim_twin_" + name + ".json";
  EXPECT_EQ(cli::run_cli(opt), 0);
  json::Value doc = json::parse_file(opt.trace_path);
  std::remove(opt.trace_path.c_str());
  return doc;
}

TEST(RunCliTwin, BaselineIsTheFaultFreeRunOfTheReportedRepetition) {
  // The failure-free twin reruns the reported result without faults: the
  // plain run, or under --testbed the last repetition with its own salt.
  for (const bool testbed : {false, true}) {
    SCOPED_TRACE(testbed ? "testbed" : "plain");
    cli::CliOptions opt;
    opt.pipelines = 2;
    if (testbed) {
      opt.testbed_system = testbed::System::CoriPrivate;
      opt.repetitions = 3;
    }
    const json::Value fault_free = traced_run(opt, "fault_free");
    opt.faults = "node_mtbf=40,node_repair=5,seed=9,horizon=400";
    const json::Value faulty = traced_run(opt, "faulty");
    const json::Value& resil = faulty.at("resil");
    ASSERT_GT(resil.get_number("node_crashes", 0.0), 0.0);
    ASSERT_TRUE(resil.contains("baseline_makespan"));
    ASSERT_TRUE(resil.contains("makespan_inflation"));
    EXPECT_EQ(resil.get_number("baseline_makespan", -1.0),
              fault_free.get_number("makespan", -2.0));
  }
}

TEST(RunCliResil, FirstCompleteTimeIsSetAtATasksFirstCompletion) {
  // CI's resil run. combine_000 is killed twice and completes once; its
  // per-task first_complete_time is that completion, its record's t_end,
  // which the attempt-aware precedence audit reads.
  cli::CliOptions opt;
  opt.pipelines = 2;
  opt.faults = "node_mtbf=40,node_repair=5,seed=9,horizon=400";
  opt.checkpoint = "interval=15,fraction=0.1,restart=2";
  const json::Value doc = traced_run(opt, "first_complete");
  const json::Value& task = doc.at("resil").at("tasks").at("combine_000");
  ASSERT_EQ(task.get_number("kills", -1.0), 2.0);
  ASSERT_EQ(task.get_number("attempts", -1.0), 3.0);
  double t_end = -1.0;
  for (const json::Value& record : doc.at("tasks").as_array()) {
    if (record.get_string("name", "") == "combine_000") t_end = record.get_number("t_end", -1.0);
  }
  EXPECT_NEAR(t_end, 148.07, 0.005);
  EXPECT_EQ(task.get_number("first_complete_time", -1.0), t_end);
}

}  // namespace cluster_flag_tests
