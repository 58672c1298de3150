// End-to-end tests of the bbsim_run driver (run_cli), plus the Gantt and
// DOT renderers it surfaces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/runner.hpp"
#include "exec/engine.hpp"
#include "exec/gantt.hpp"
#include "json/json.hpp"
#include "util/error.hpp"
#include "workflow/dot.hpp"
#include "workflow/swarp.hpp"

namespace bbsim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RunCli, DefaultRunSucceeds) {
  cli::CliOptions opt;
  opt.quiet = true;
  EXPECT_EQ(cli::run_cli(opt), 0);
}

TEST(RunCli, WritesTraceCsvAndDot) {
  const std::string dir = ::testing::TempDir();
  cli::CliOptions opt;
  opt.quiet = true;
  opt.trace_path = dir + "/bbsim_cli_trace.json";
  opt.csv_path = dir + "/bbsim_cli_tasks.csv";
  opt.dot_path = dir + "/bbsim_cli_wf.dot";
  EXPECT_EQ(cli::run_cli(opt), 0);

  const json::Value trace = json::parse_file(opt.trace_path);
  EXPECT_TRUE(trace.contains("makespan"));
  EXPECT_EQ(trace.at("tasks").as_array().size(), 3u);  // stage_in + 2 tasks

  const std::string csv = slurp(opt.csv_path);
  EXPECT_NE(csv.find("task,type,host"), std::string::npos);
  EXPECT_NE(csv.find("resample_000"), std::string::npos);

  const std::string dot = slurp(opt.dot_path);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("stage_in"), std::string::npos);

  std::remove(opt.trace_path.c_str());
  std::remove(opt.csv_path.c_str());
  std::remove(opt.dot_path.c_str());
}

TEST(RunCli, TimelineOutWritesStablePerfettoJson) {
  const std::string path = ::testing::TempDir() + "/bbsim_cli_timeline.json";
  cli::CliOptions opt;
  opt.quiet = true;
  opt.profile = true;
  opt.timeline_path = path;
  ASSERT_EQ(cli::run_cli(opt), 0);
  const std::string first = slurp(path);
  ASSERT_FALSE(first.empty());

  const json::Value doc = json::parse(first);
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "bbsim.timeline.v1");
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());

  // --profile measures wall-clock time but must not leak into the
  // timeline: a repeated run exports byte-identically.
  ASSERT_EQ(cli::run_cli(opt), 0);
  EXPECT_EQ(slurp(path), first);
  std::remove(path.c_str());
}

TEST(RunCli, TestbedRepetitions) {
  cli::CliOptions opt;
  opt.quiet = true;
  opt.testbed_system = testbed::System::Summit;
  opt.repetitions = 2;
  EXPECT_EQ(cli::run_cli(opt), 0);
}

TEST(RunCli, HelpReturnsZero) {
  cli::CliOptions opt;
  opt.help = true;
  EXPECT_EQ(cli::run_cli(opt), 0);
}

TEST(RunCli, AuditFlagsParse) {
  const cli::CliOptions opt =
      cli::parse_cli({"--audit", "--audit-out", "a.json", "--quiet"});
  EXPECT_TRUE(opt.audit);
  EXPECT_EQ(opt.audit_path, "a.json");
  EXPECT_TRUE(cli::parse_cli({"--audit"}).audit);
  EXPECT_FALSE(cli::parse_cli({}).audit);
  // --audit-out without --audit is a config error naming the option.
  try {
    cli::parse_cli({"--audit-out", "a.json"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--audit-out"), std::string::npos);
  }
}

TEST(RunCli, AuditedRunIsCleanAndWritesReport) {
  const std::string path = ::testing::TempDir() + "/bbsim_cli_audit.json";
  cli::CliOptions opt;
  opt.quiet = true;
  opt.pipelines = 2;
  opt.audit_path = path;
  opt.audit = true;
  EXPECT_EQ(cli::run_cli(opt), 0);
  const json::Value report = json::parse(slurp(path));
  EXPECT_EQ(report.at("schema").as_string(), "bbsim.audit.v1");
  EXPECT_TRUE(report.at("clean").as_bool());
  EXPECT_EQ(report.at("total_violations").as_number(), 0.0);
}

TEST(RunCli, AuditedTestbedRepetitionsReturnZero) {
  cli::CliOptions opt;
  opt.quiet = true;
  opt.audit = true;
  opt.testbed_system = testbed::System::Summit;
  opt.repetitions = 2;
  EXPECT_EQ(cli::run_cli(opt), 0);
}

TEST(MainImpl, AuditSmokeRun) {
  const char* argv[] = {"bbsim_run", "--quiet", "--workflow", "genomes",
                        "--chromosomes", "2", "--audit"};
  EXPECT_EQ(cli::main_impl(7, argv), 0);
}

TEST(MainImpl, BadFlagReturnsNonZero) {
  const char* argv[] = {"bbsim_run", "--bogus"};
  EXPECT_EQ(cli::main_impl(2, argv), 1);
}

TEST(MainImpl, QuietRunReturnsZero) {
  const char* argv[] = {"bbsim_run", "--quiet", "--pipelines", "2"};
  EXPECT_EQ(cli::main_impl(4, argv), 0);
}

// ----------------------------------------------------------------- gantt

exec::Result run_swarp() {
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  exec::Simulation sim(testbed::paper_platform(testbed::System::CoriPrivate),
                       wf::make_swarp({.pipelines = 2}), cfg);
  return sim.run();
}

TEST(Gantt, RendersAllTasks) {
  const exec::Result r = run_swarp();
  const std::string chart = exec::render_gantt(r);
  EXPECT_NE(chart.find("stage_in"), std::string::npos);
  EXPECT_NE(chart.find("resample_000"), std::string::npos);
  EXPECT_NE(chart.find("combine_001"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
  // Compute bars exist.
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(Gantt, TruncatesLargeWorkflows) {
  const exec::Result r = run_swarp();
  exec::GanttOptions opt;
  opt.max_rows = 2;
  const std::string chart = exec::render_gantt(r, opt);
  EXPECT_NE(chart.find("more tasks"), std::string::npos);
}

TEST(Gantt, RespectsWidth) {
  const exec::Result r = run_swarp();
  exec::GanttOptions opt;
  opt.width = 30;
  opt.show_host = false;
  const std::string chart = exec::render_gantt(r, opt);
  // Every bar line is label + " |" + 30 chars + "|".
  std::istringstream lines(chart);
  std::string line;
  std::getline(lines, line);  // time header
  std::getline(lines, line);  // legend
  while (std::getline(lines, line)) {
    if (line.find('|') == std::string::npos) continue;
    const auto first = line.find('|');
    const auto last = line.rfind('|');
    EXPECT_EQ(last - first - 1, 30u) << line;
  }
}

// ------------------------------------------------------------------- dot

TEST(Dot, TaskGraphStructure) {
  const wf::Workflow w = wf::make_swarp({.pipelines = 1});
  const std::string dot = wf::to_dot(w);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"stage_in\" -> \"resample_000\""), std::string::npos);
  EXPECT_NE(dot.find("\"resample_000\" -> \"combine_000\""), std::string::npos);
}

TEST(Dot, FileVerticesMode) {
  wf::Workflow w;
  w.add_file({"data.bin", 1e6});
  w.add_task({"p", "producer", 1, 0, 1, {}, {"data.bin"}});
  w.add_task({"c", "consumer", 1, 0, 1, {"data.bin"}, {}});
  wf::DotOptions opt;
  opt.show_files = true;
  const std::string dot = wf::to_dot(w, opt);
  EXPECT_NE(dot.find("\"p\" -> \"file:data.bin\""), std::string::npos);
  EXPECT_NE(dot.find("\"file:data.bin\" -> \"c\""), std::string::npos);
  EXPECT_NE(dot.find("1.00 MB"), std::string::npos);
}

TEST(Dot, ControlDepsDashedInFileMode) {
  wf::Workflow w;
  w.add_task({"a", "t", 1, 0, 1, {}, {}});
  w.add_task({"b", "t", 1, 0, 1, {}, {}});
  w.add_control_dep("a", "b");
  wf::DotOptions opt;
  opt.show_files = true;
  EXPECT_NE(wf::to_dot(w, opt).find("style=dashed"), std::string::npos);
}

TEST(Dot, SaveToDisk) {
  const std::string path = ::testing::TempDir() + "/bbsim_dot_test.dot";
  wf::save_dot(path, wf::make_swarp({}));
  EXPECT_NE(slurp(path).find("digraph"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbsim
