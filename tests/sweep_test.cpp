// Tests for the parallel sweep engine: deterministic ordering, failure
// isolation, cancel-on-error, spec expansion, report aggregation, and
// byte-identical serial/parallel reports through the bbsim_sweep path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "cli/sweep_cli.hpp"
#include "exec/engine.hpp"
#include "platform/presets.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "testbed/characterize.hpp"
#include "testbed/testbed.hpp"
#include "util/error.hpp"
#include "workflow/swarp.hpp"

namespace bbsim {
namespace {

// ---------------------------------------------------------------- helpers

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A tiny real simulation whose makespan depends on `pipelines` -- cheap,
/// deterministic, and exercising the full sim/flow/exec stack.
exec::Result tiny_run(int pipelines) {
  wf::SwarpConfig cfg;
  cfg.pipelines = pipelines;
  exec::ExecutionConfig ecfg;
  ecfg.collect_trace = false;
  exec::Simulation sim(platform::cori_platform(), wf::make_swarp(cfg), ecfg);
  return sim.run();
}

std::vector<sweep::RunSpec> tiny_specs(int n) {
  std::vector<sweep::RunSpec> specs;
  for (int i = 1; i <= n; ++i) {
    specs.push_back(sweep::RunSpec{"p" + std::to_string(i), [i] { return tiny_run(i); }});
  }
  return specs;
}

// ------------------------------------------------------------ SweepRunner

TEST(SweepRunner, EffectiveJobs) {
  EXPECT_EQ(sweep::effective_jobs(1), 1);
  EXPECT_EQ(sweep::effective_jobs(7), 7);
  EXPECT_GE(sweep::effective_jobs(0), 1);  // hardware threads, at least one
  EXPECT_THROW(sweep::effective_jobs(-1), util::ConfigError);
}

TEST(SweepRunner, EmptySweep) {
  EXPECT_TRUE(sweep::SweepRunner().run({}).empty());
}

// Acceptance (c): result order is stable across --jobs values, and equals
// spec order regardless of completion order.
TEST(SweepRunner, ResultOrderIndependentOfJobs) {
  const std::vector<sweep::RunSpec> specs = tiny_specs(6);
  sweep::SweepOptions serial_opt;
  serial_opt.jobs = 1;
  const auto serial = sweep::SweepRunner(serial_opt).run(specs);
  ASSERT_EQ(serial.size(), 6u);
  for (const int jobs : {2, 3, 8}) {
    sweep::SweepOptions opt;
    opt.jobs = jobs;
    const auto parallel = sweep::SweepRunner(opt).run(specs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].name, serial[i].name) << "jobs=" << jobs;
      ASSERT_TRUE(parallel[i].ok);
      EXPECT_EQ(parallel[i].result.makespan, serial[i].result.makespan)
          << "jobs=" << jobs << " run=" << i;
      EXPECT_EQ(parallel[i].result.tasks.size(), serial[i].result.tasks.size());
    }
  }
}

// Acceptance (b): a failing config is reported without poisoning siblings.
TEST(SweepRunner, FailureIsolated) {
  std::vector<sweep::RunSpec> specs = tiny_specs(4);
  specs.insert(specs.begin() + 2,
               sweep::RunSpec{"boom", []() -> exec::Result {
                                throw util::ConfigError("deliberate failure");
                              }});
  sweep::SweepOptions opt;
  opt.jobs = 3;
  const auto outcomes = sweep::SweepRunner(opt).run(specs);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_NE(outcomes[2].error.find("deliberate failure"), std::string::npos);
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(outcomes[i].ok) << "sibling " << i << " poisoned";
    EXPECT_TRUE(outcomes[i].error.empty());
    EXPECT_GT(outcomes[i].result.makespan, 0.0);
  }
}

TEST(SweepRunner, CancelOnErrorSkipsUnstartedRuns) {
  std::vector<sweep::RunSpec> specs;
  specs.push_back(sweep::RunSpec{"fail", []() -> exec::Result {
                                   throw util::ConfigError("first run fails");
                                 }});
  for (auto& s : tiny_specs(3)) specs.push_back(std::move(s));
  sweep::SweepOptions opt;
  opt.jobs = 1;  // serial: everything after the failure must be skipped
  opt.cancel_on_error = true;
  const auto outcomes = sweep::SweepRunner(opt).run(specs);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_FALSE(outcomes[0].ok);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].skipped) << "run " << i;
    EXPECT_FALSE(outcomes[i].ok);
    EXPECT_EQ(outcomes[i].name, specs[i].name);  // named even when skipped
  }
}

TEST(SweepRunner, ProgressCallbackSerializedAndComplete) {
  const std::vector<sweep::RunSpec> specs = tiny_specs(5);
  std::vector<std::size_t> finished_counts;
  std::set<std::string> names;
  sweep::SweepOptions opt;
  opt.jobs = 4;
  opt.on_progress = [&](const sweep::Progress& p) {
    finished_counts.push_back(p.finished);  // safe: callbacks are serialized
    names.insert(p.name);
    EXPECT_EQ(p.total, 5u);
  };
  sweep::SweepRunner(opt).run(specs);
  ASSERT_EQ(finished_counts.size(), 5u);
  for (std::size_t i = 0; i < finished_counts.size(); ++i) {
    EXPECT_EQ(finished_counts[i], i + 1);  // monotonic under the lock
  }
  EXPECT_EQ(names.size(), 5u);
}

// ------------------------------------------------------------- sweep spec

TEST(SweepSpec, ExpandCrossProductDeterministically) {
  const json::Value doc = json::parse(R"({
    "name": "study",
    "base": {"workflow": "swarp"},
    "axes": {"a": [1, 2], "b": ["x", "y", "z"]},
    "repetitions": 2
  })");
  const sweep::SweepSpec spec = sweep::parse_sweep_spec(doc);
  const auto runs = sweep::expand(spec);
  ASSERT_EQ(runs.size(), 2u * 3u * 2u);
  // Last axis fastest, repetitions fastest of all.
  EXPECT_EQ(runs[0].name, "a=1,b=x#rep0");
  EXPECT_EQ(runs[1].name, "a=1,b=x#rep1");
  EXPECT_EQ(runs[2].name, "a=1,b=y#rep0");
  EXPECT_EQ(runs[6].name, "a=2,b=x#rep0");
  EXPECT_EQ(runs[11].name, "a=2,b=z#rep1");
  EXPECT_EQ(runs[6].settings.at("a").as_int(), 2);
  EXPECT_EQ(runs[6].settings.at("workflow").as_string(), "swarp");
  EXPECT_EQ(runs[1].repetition, 1);
}

TEST(SweepSpec, SingleRepetitionOmitsSuffix) {
  const json::Value doc =
      json::parse(R"({"axes": {"pipelines": [1, 2]}})");
  const auto runs = sweep::expand(sweep::parse_sweep_spec(doc));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].name, "pipelines=1");
  EXPECT_EQ(runs[1].name, "pipelines=2");
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(sweep::parse_sweep_spec(json::parse("[1,2]")), util::ParseError);
  EXPECT_THROW(sweep::parse_sweep_spec(json::parse(R"({"axes": {"a": []}})")),
               util::ParseError);
  EXPECT_THROW(sweep::parse_sweep_spec(json::parse(R"({"bogus": 1})")),
               util::ParseError);
  EXPECT_THROW(sweep::parse_sweep_spec(json::parse(R"({"repetitions": 0})")),
               util::ConfigError);
  // A key cannot be both a base setting and an axis.
  EXPECT_THROW(sweep::parse_sweep_spec(json::parse(
                   R"({"base": {"a": 1}, "axes": {"a": [1, 2]}})")),
               util::ConfigError);
}

TEST(SweepSpec, SettingsValueToString) {
  EXPECT_EQ(sweep::settings_value_to_string(json::Value("fraction:0.5")),
            "fraction:0.5");
  EXPECT_EQ(sweep::settings_value_to_string(json::Value(8)), "8");
  EXPECT_EQ(sweep::settings_value_to_string(json::Value(0.25)), "0.25");
  EXPECT_EQ(sweep::settings_value_to_string(json::Value(true)), "1");
}

// ----------------------------------------------------------- sweep report

TEST(SweepReport, AggregatesOutcomes) {
  sweep::SweepOptions opt;
  opt.jobs = 2;
  std::vector<sweep::RunSpec> specs = tiny_specs(2);
  specs.push_back(sweep::RunSpec{"bad", []() -> exec::Result {
                                   throw util::ConfigError("nope");
                                 }});
  const auto outcomes = sweep::SweepRunner(opt).run(specs);
  const json::Value report = sweep::sweep_report("unit", outcomes, false);
  EXPECT_EQ(report.at("schema").as_string(), "bbsim.sweep.v1");
  EXPECT_EQ(report.at("name").as_string(), "unit");
  const json::Array& runs = report.at("runs").as_array();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_TRUE(runs[0].at("ok").as_bool());
  EXPECT_GT(runs[0].at("makespan").as_number(), 0.0);
  EXPECT_FALSE(runs[0].contains("wall_seconds"));  // timings off by default
  EXPECT_FALSE(runs[2].at("ok").as_bool());
  EXPECT_NE(runs[2].at("error").as_string().find("nope"), std::string::npos);
  const json::Value& summary = report.at("summary");
  EXPECT_EQ(summary.at("total").as_int(), 3);
  EXPECT_EQ(summary.at("ok").as_int(), 2);
  EXPECT_EQ(summary.at("failed").as_int(), 1);
  EXPECT_GT(summary.at("makespan").at("mean").as_number(), 0.0);
}

TEST(SweepReport, TimingsAreOptIn) {
  const auto outcomes = sweep::SweepRunner().run(tiny_specs(1));
  const json::Value with = sweep::sweep_report("t", outcomes, true);
  EXPECT_TRUE(with.at("runs").as_array()[0].contains("wall_seconds"));
}

// ----------------------------------------------- bbsim_sweep (cli) path

sweep::SweepSpec small_spec() {
  return sweep::parse_sweep_spec(json::parse(R"({
    "name": "cli-sweep",
    "base": {"workflow": "swarp", "cores": 8},
    "axes": {"pipelines": [1, 2], "policy": ["all_pfs", "all_bb"]}
  })"));
}

// Acceptance (a): parallel and serial runs of the same spec produce
// byte-identical reports.
TEST(SweepCli, SerialAndParallelReportsByteIdentical) {
  cli::SweepCliOptions serial;
  serial.jobs = 1;
  serial.quiet = true;
  cli::SweepCliOptions parallel;
  parallel.jobs = 4;
  parallel.quiet = true;
  const std::string a = cli::run_sweep_to_json(small_spec(), serial).dump(2);
  const std::string b = cli::run_sweep_to_json(small_spec(), parallel).dump(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ok\": true"), std::string::npos);
}

TEST(SweepCli, TestbedRepetitionsVaryButStayDeterministic) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "testbed": "cori-private"},
    "repetitions": 2
  })"));
  cli::SweepCliOptions opt;
  opt.jobs = 2;
  opt.quiet = true;
  const auto o1 = cli::execute_sweep_spec(spec, opt);
  const auto o2 = cli::execute_sweep_spec(spec, opt);
  ASSERT_EQ(o1.size(), 2u);
  ASSERT_TRUE(o1[0].ok && o1[1].ok);
  // Different noise per repetition, identical across invocations.
  EXPECT_NE(o1[0].result.makespan, o1[1].result.makespan);
  EXPECT_EQ(o1[0].result.makespan, o2[0].result.makespan);
  EXPECT_EQ(o1[1].result.makespan, o2[1].result.makespan);
}

TEST(SweepCli, ForbidsPerRunOutputFlags) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "trace": "out.json"}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  const auto outcomes = cli::execute_sweep_spec(spec, opt);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("not allowed"), std::string::npos);
}

TEST(SweepCli, MetricsSwitchEmbedsMetrics) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "metrics": true}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  const json::Value report = cli::run_sweep_to_json(spec, opt);
  const json::Value& run = report.at("runs").as_array()[0];
  ASSERT_TRUE(run.at("ok").as_bool());
  EXPECT_TRUE(run.contains("metrics"));
  EXPECT_EQ(run.at("metrics").at("schema").as_string(), "bbsim.metrics.v1");
}

TEST(SweepCli, AuditSwitchEmbedsViolationCounts) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp"},
    "axes": {"pipelines": [1, 2]}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  opt.audit = true;
  const json::Value report = cli::run_sweep_to_json(spec, opt);
  const json::Array& runs = report.at("runs").as_array();
  ASSERT_EQ(runs.size(), 2u);
  for (const json::Value& run : runs) {
    ASSERT_TRUE(run.at("ok").as_bool());
    EXPECT_EQ(run.at("audit_violations").as_number(), 0.0);
  }
  EXPECT_EQ(report.at("summary").at("audit").at("runs_audited").as_number(), 2.0);
  EXPECT_EQ(report.at("summary").at("audit").at("violations").as_number(), 0.0);
}

TEST(SweepCli, SpecLevelAuditKeyOptsARunIn) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "audit": true}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;  // note: no --audit; the spec asks by itself
  const json::Value report = cli::run_sweep_to_json(spec, opt);
  const json::Value& run = report.at("runs").as_array()[0];
  ASSERT_TRUE(run.at("ok").as_bool());
  EXPECT_TRUE(run.contains("audit_violations"));
}

TEST(SweepCli, UnauditedReportHasNoAuditFields) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp"}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  const json::Value report = cli::run_sweep_to_json(spec, opt);
  EXPECT_FALSE(report.at("runs").as_array()[0].contains("audit_violations"));
  EXPECT_FALSE(report.at("summary").contains("audit"));
}

TEST(SweepCli, ForbidsAuditOutInsideASweep) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "audit-out": "a.json"}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  const auto outcomes = cli::execute_sweep_spec(spec, opt);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("not allowed"), std::string::npos);
}

TEST(SweepCli, ForbidsTimelineOutAndProfileInsideASweep) {
  // Per-run output/profiling flags stay banned from sweep specs; runs opt
  // into timelines with the sweep-level "timeline": true switch instead.
  for (const char* body :
       {R"({"base": {"workflow": "swarp", "timeline-out": "t.json"}})",
        R"({"base": {"workflow": "swarp", "profile": true}})"}) {
    const auto spec = sweep::parse_sweep_spec(json::parse(body));
    cli::SweepCliOptions opt;
    opt.quiet = true;
    const auto outcomes = cli::execute_sweep_spec(spec, opt);
    ASSERT_EQ(outcomes.size(), 1u) << body;
    EXPECT_FALSE(outcomes[0].ok) << body;
    EXPECT_NE(outcomes[0].error.find("not allowed"), std::string::npos) << body;
  }
}

TEST(SweepCli, SpecTimelineWithoutDirFailsBeforeRunning) {
  const auto spec = sweep::parse_sweep_spec(json::parse(R"({
    "base": {"workflow": "swarp", "timeline": true}
  })"));
  cli::SweepCliOptions opt;
  opt.quiet = true;
  try {
    cli::execute_sweep_spec(spec, opt);
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--timeline-dir"), std::string::npos);
  }
}

TEST(SweepCli, TimelineDirExportIsByteStableAndMatchesDirectRun) {
  const auto make_spec = [] {
    return sweep::parse_sweep_spec(json::parse(R"({
      "name": "tl",
      "base": {"workflow": "swarp", "pipelines": 2, "timeline": true}
    })"));
  };
  const std::string dir = ::testing::TempDir() + "/bbsim_sweep_tl";
  const std::string run_file = dir + "/base.json";  // run name: "base"
  cli::SweepCliOptions opt;
  opt.quiet = true;
  opt.timeline_dir = dir;
  cli::run_sweep_to_json(make_spec(), opt);
  const std::string first = slurp(run_file);
  ASSERT_FALSE(first.empty());
  // Byte-identical on a repeated sweep...
  cli::run_sweep_to_json(make_spec(), opt);
  EXPECT_EQ(slurp(run_file), first);
  // ...and identical to what bbsim_run --timeline-out exports for the same
  // configuration: the timeline depends only on the simulated run.
  const std::string direct = dir + "/direct.json";
  ASSERT_EQ(cli::run_cli(cli::parse_cli({"--workflow", "swarp", "--pipelines",
                                         "2", "--quiet", "--timeline-out",
                                         direct})),
            0);
  EXPECT_EQ(slurp(direct), first);
  std::remove(run_file.c_str());
  std::remove(direct.c_str());
}

TEST(SweepCli, ParseRejectsBadArgs) {
  EXPECT_THROW(cli::parse_sweep_cli({"--jobs", "-2", "s.json"}), util::ConfigError);
  EXPECT_THROW(cli::parse_sweep_cli({}), util::ConfigError);
  EXPECT_THROW(cli::parse_sweep_cli({"a.json", "b.json"}), util::ConfigError);
  EXPECT_THROW(cli::parse_sweep_cli({"--bogus"}), util::ConfigError);
  EXPECT_THROW(cli::parse_sweep_cli({"--jobs", "2x", "s.json"}), util::ConfigError);
  EXPECT_THROW(cli::parse_sweep_cli({"--jobs", "abc", "s.json"}), util::ConfigError);
  const auto opt =
      cli::parse_sweep_cli({"spec.json", "--jobs", "0", "--timings", "--audit"});
  EXPECT_EQ(opt.jobs, 0);
  EXPECT_TRUE(opt.timings);
  EXPECT_TRUE(opt.audit);
  EXPECT_EQ(opt.spec_path, "spec.json");
}

// --------------------------------------------- testbed parallel repetitions

TEST(TestbedParallel, RepetitionsIdenticalAcrossJobCounts) {
  testbed::TestbedOptions topt;
  topt.repetitions = 4;
  const testbed::Testbed tb(testbed::System::CoriPrivate, topt);
  const wf::Workflow workflow = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.collect_trace = false;
  const auto serial = tb.run_repetitions(workflow, cfg, 0.5, /*jobs=*/1);
  const auto parallel = tb.run_repetitions(workflow, cfg, 0.5, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].makespan, parallel[i].makespan) << "rep " << i;
  }
}

TEST(TestbedParallel, CharacterizationOverSweepOutcomes) {
  sweep::SweepOptions opt;
  opt.jobs = 2;
  std::vector<sweep::RunSpec> specs = tiny_specs(2);
  specs.push_back(sweep::RunSpec{"bad", []() -> exec::Result {
                                   throw util::ConfigError("dead run");
                                 }});
  const auto outcomes = sweep::SweepRunner(opt).run(specs);
  EXPECT_EQ(testbed::ok_results(outcomes).size(), 2u);
  const std::string report = testbed::characterization_report(outcomes);
  EXPECT_NE(report.find("per task type:"), std::string::npos);
  EXPECT_NE(report.find("FAILED bad: configuration error: dead run"),
            std::string::npos);
}

}  // namespace
}  // namespace bbsim
