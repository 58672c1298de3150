// Tests for the causal critical-path layer (src/critpath): unit tests on
// critpath::analyze over hand-built task summaries (segment partition, blame
// arithmetic, slack, what-if replay, report schema), then integrated tests
// through exec::Simulation (opt-in invisibility, path length == makespan,
// fault rework attribution) and the S3 observability matrix: timeline
// counter tracks under resil.hosts_down combined with --critpath flow
// links, byte-determinism across repeated runs and --jobs 1 vs 8 sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cli/sweep_cli.hpp"
#include "critpath/critpath.hpp"
#include "exec/engine.hpp"
#include "json/json.hpp"
#include "platform/presets.hpp"
#include "platform/spec.hpp"
#include "resil/fault.hpp"
#include "sweep/spec.hpp"
#include "trace/timeline.hpp"
#include "workflow/genomes.hpp"
#include "workflow/swarp.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::critpath {
namespace {

// ------------------------------------------------------------ unit: analyze

/// Shorthand: final task timings with no parents and no stage-in flag.
TaskTimes times(std::string name, double ready, double start,
                double reads_done, double compute_done, double end,
                std::vector<std::string> parents = {}) {
  TaskTimes t;
  t.name = std::move(name);
  t.t_ready = ready;
  t.t_start = start;
  t.t_reads_done = reads_done;
  t.t_compute_done = compute_done;
  t.t_end = end;
  t.parents = std::move(parents);
  return t;
}

double blame_of(const Report& r, Blame b) {
  return r.blame[static_cast<std::size_t>(b)];
}

/// A readiness event of `kind` (naming `parent` on a parent edge).
ReadyEvent ready_at(double time, ReadyCause::Kind kind, std::string parent = "") {
  return ReadyEvent{time, ReadyCause{kind, std::move(parent)}};
}

const WhatIf* find_what_if(const Report& r, const std::string& scenario) {
  for (const WhatIf& w : r.what_ifs) {
    if (w.scenario == scenario) return &w;
  }
  return nullptr;
}

TEST(CritpathUnit, BlameNamesAreSchemaConstants) {
  EXPECT_STREQ(to_string(Blame::kCompute), "compute");
  EXPECT_STREQ(to_string(Blame::kBbTransfer), "bb_transfer");
  EXPECT_STREQ(to_string(Blame::kPfsTransfer), "pfs_transfer");
  EXPECT_STREQ(to_string(Blame::kBbCapacityWait), "bb_capacity_wait");
  EXPECT_STREQ(to_string(Blame::kQueueWait), "queue_wait");
  EXPECT_STREQ(to_string(Blame::kRecoveryRework), "recovery_rework");
  EXPECT_EQ(kAllBlames.size(), kBlameCount);
}

TEST(CritpathUnit, SingleTaskPartitionsMakespanExactly) {
  // One task: wait [0,2], BB reads [2,5], compute [5,9], PFS write [9,10].
  AnalyzeInput input;
  input.tasks.push_back(times("t", 0.0, 2.0, 5.0, 9.0, 10.0));
  TaskTrace& trace = input.tasks.back().trace;
  trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  trace.attempt.read_bb = {100.0, 1};
  trace.attempt.write_pfs = {50.0, 1};
  input.makespan = 10.0;

  const Report r = analyze(input);
  ASSERT_EQ(r.path.size(), 4u);
  EXPECT_EQ(r.path[0].phase, "wait");
  EXPECT_EQ(r.path[0].blame, Blame::kQueueWait);
  EXPECT_EQ(r.path[1].phase, "read");
  EXPECT_EQ(r.path[1].blame, Blame::kBbTransfer);
  EXPECT_EQ(r.path[2].phase, "compute");
  EXPECT_EQ(r.path[3].phase, "write");
  EXPECT_EQ(r.path[3].blame, Blame::kPfsTransfer);

  // Contiguous cover of [0, makespan]: both identities hold exactly here.
  EXPECT_DOUBLE_EQ(r.path_length(), 10.0);
  EXPECT_DOUBLE_EQ(r.blame_total(), 10.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kQueueWait), 2.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kBbTransfer), 3.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kCompute), 4.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kPfsTransfer), 1.0);
  // The sink task has no slack.
  ASSERT_EQ(r.slack.count("t"), 1u);
  EXPECT_NEAR(r.slack.at("t"), 0.0, 1e-12);

  // Replay: baseline reproduces the makespan; removing the BB transfer
  // saves exactly its 3 s share.
  const WhatIf* baseline = find_what_if(r, "baseline");
  ASSERT_NE(baseline, nullptr);
  EXPECT_NEAR(baseline->makespan, 10.0, 1e-12);
  const WhatIf* inf_bb = find_what_if(r, "infinite_bb_bandwidth");
  ASSERT_NE(inf_bb, nullptr);
  EXPECT_NEAR(inf_bb->makespan, 7.0, 1e-12);
  const WhatIf* no_queue = find_what_if(r, "no_queue_wait");
  ASSERT_NE(no_queue, nullptr);
  EXPECT_NEAR(no_queue->makespan, 8.0, 1e-12);
  for (const WhatIf& w : r.what_ifs) {
    EXPECT_LE(w.makespan, r.makespan + 1e-12) << w.scenario;
  }
}

TEST(CritpathUnit, ParentEdgeExtendsPathAndOffPathTaskHasSlack) {
  // a: [0,4] compute; b waits on a, then [4..6] queued, [6,9] compute;
  // c: [0,3] compute off the critical path (slack 6).
  AnalyzeInput input;
  input.tasks.push_back(times("a", 0.0, 0.0, 0.0, 4.0, 4.0));
  input.tasks.back().trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  input.tasks.push_back(times("b", 4.0, 6.0, 6.0, 9.0, 9.0, {"a"}));
  input.tasks.back().trace.ready.push_back(ready_at(4.0, ReadyCause::Kind::kParent, "a"));
  input.tasks.push_back(times("c", 0.0, 0.0, 0.0, 3.0, 3.0));
  input.tasks.back().trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  input.makespan = 9.0;

  const Report r = analyze(input);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0].task, "a");
  EXPECT_EQ(r.path[0].phase, "compute");
  EXPECT_EQ(r.path[1].task, "b");
  EXPECT_EQ(r.path[1].phase, "wait");
  EXPECT_EQ(r.path[2].task, "b");
  EXPECT_EQ(r.path[2].phase, "compute");
  EXPECT_DOUBLE_EQ(r.path_length(), 9.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kCompute), 7.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kQueueWait), 2.0);

  EXPECT_NEAR(r.slack.at("a"), 0.0, 1e-12);
  EXPECT_NEAR(r.slack.at("b"), 0.0, 1e-12);
  EXPECT_NEAR(r.slack.at("c"), 6.0, 1e-12);

  // Deleting queue wait compresses the chain to a 4 s + 3 s rigid spine.
  const WhatIf* no_queue = find_what_if(r, "no_queue_wait");
  ASSERT_NE(no_queue, nullptr);
  EXPECT_NEAR(no_queue->makespan, 7.0, 1e-12);
}

TEST(CritpathUnit, AbortedAttemptsChargeRecoveryRework) {
  // Attempt 1 waits [0,1], runs [1,6], dies; requeued at 6, waits [6,7],
  // computes [7,10]. The thrown-away window is recovery rework.
  AnalyzeInput input;
  input.tasks.push_back(times("t", 6.0, 7.0, 7.0, 10.0, 10.0));
  TaskTrace& trace = input.tasks.back().trace;
  trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  trace.aborted.push_back(AbortedAttempt{0.0, 1.0, 6.0});
  trace.ready.push_back(ready_at(6.0, ReadyCause::Kind::kRequeue));
  input.makespan = 10.0;

  const Report r = analyze(input);
  EXPECT_NEAR(r.path_length(), 10.0, 1e-12);
  EXPECT_NEAR(r.blame_total(), 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kRecoveryRework), 5.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kQueueWait), 2.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kCompute), 3.0);
  // The path reaches back to t=0 through the dead attempt.
  ASSERT_FALSE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.path.front().start, 0.0);
  bool has_rework = false;
  for (const Segment& s : r.path) has_rework |= (s.phase == "rework");
  EXPECT_TRUE(has_rework);

  // A fault-free replay deletes the dead attempt and its waits around it.
  const WhatIf* no_faults = find_what_if(r, "no_faults");
  ASSERT_NE(no_faults, nullptr);
  EXPECT_NEAR(no_faults->makespan, 5.0, 1e-12);
}

TEST(CritpathUnit, ReplayKeepsDoneChildOfRolledBackParentAtItsReadiness) {
  // p's first attempt ran [0,4] and readied c, which ran [4,5]; a crash at
  // 6 lost p's output, so p was rolled back and re-ran [6,10]. c had
  // consumed the first attempt: the replay must not chain it after p's
  // re-run (5 s past the makespan at unit scale).
  AnalyzeInput input;
  input.tasks.push_back(times("p", 6.0, 6.0, 6.0, 10.0, 10.0));
  TaskTrace& p = input.tasks.back().trace;
  p.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  p.aborted.push_back(AbortedAttempt{0.0, 0.0, 6.0});
  p.ready.push_back(ready_at(6.0, ReadyCause::Kind::kRollback));
  input.tasks.push_back(times("c", 4.0, 4.0, 4.0, 5.0, 5.0, {"p"}));
  input.tasks.back().trace.ready.push_back(ready_at(4.0, ReadyCause::Kind::kParent, "p"));
  input.makespan = 10.0;

  const Report r = analyze(input);
  EXPECT_NEAR(r.path_length(), 10.0, 1e-12);
  const WhatIf* baseline = find_what_if(r, "baseline");
  ASSERT_NE(baseline, nullptr);
  EXPECT_NEAR(baseline->makespan, 10.0, 1e-12);
  for (const WhatIf& w : r.what_ifs) {
    EXPECT_LE(w.makespan, r.makespan + 1e-12) << w.scenario;
  }
}

TEST(CritpathUnit, ImplicitStageInHeadsThePath) {
  // Inputs were staged over [0,3] before the entry task became ready.
  AnalyzeInput input;
  input.implicit_stage_in = true;
  input.tasks.push_back(times("t", 3.0, 3.0, 3.0, 8.0, 8.0));
  input.tasks.back().trace.ready.push_back(ready_at(3.0, ReadyCause::Kind::kWorkflowStart));
  input.makespan = 8.0;

  const Report r = analyze(input);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path.front().task, "implicit_stage_in");
  EXPECT_EQ(r.path.front().blame, Blame::kPfsTransfer);
  EXPECT_DOUBLE_EQ(r.path.front().start, 0.0);
  EXPECT_DOUBLE_EQ(r.path.front().end, 3.0);
  EXPECT_NEAR(r.path_length(), 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kPfsTransfer), 3.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kCompute), 5.0);
}

TEST(CritpathUnit, StageOutDrainIsAPfsTailSegment) {
  AnalyzeInput input;
  input.tasks.push_back(times("t", 0.0, 0.0, 0.0, 8.0, 8.0));
  input.tasks.back().trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  input.makespan = 10.0;
  input.stage_out_duration = 2.0;

  const Report r = analyze(input);
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path.back().task, "stage_out");
  EXPECT_EQ(r.path.back().blame, Blame::kPfsTransfer);
  EXPECT_DOUBLE_EQ(r.path.back().start, 8.0);
  EXPECT_DOUBLE_EQ(r.path.back().end, 10.0);
  EXPECT_NEAR(r.path_length(), 10.0, 1e-12);
}

TEST(CritpathUnit, EmptyInputYieldsBaselineOnlyReport) {
  const Report r = analyze(AnalyzeInput());
  EXPECT_TRUE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.blame_total(), 0.0);
  const WhatIf* baseline = find_what_if(r, "baseline");
  ASSERT_NE(baseline, nullptr);
  EXPECT_DOUBLE_EQ(baseline->makespan, 0.0);
}

TEST(CritpathUnit, SetBlameFromPathRederivesTotals) {
  Report r;
  r.path.push_back({"x", "wait", Blame::kQueueWait, 0.0, 2.5});
  r.path.push_back({"x", "read", Blame::kBbTransfer, 2.5, 4.0});
  r.path.push_back({"x", "compute", Blame::kCompute, 4.0, 9.0});
  r.set_blame_from_path();
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kQueueWait), 2.5);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kBbTransfer), 1.5);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kCompute), 5.0);
  EXPECT_DOUBLE_EQ(blame_of(r, Blame::kPfsTransfer), 0.0);
  EXPECT_DOUBLE_EQ(r.blame_total(), r.path_length());
}

TEST(CritpathUnit, ReportJsonIsSchemaTaggedCompleteAndByteStable) {
  AnalyzeInput input;
  input.tasks.push_back(times("t", 0.0, 2.0, 5.0, 9.0, 10.0));
  input.tasks.back().trace.ready.push_back(ready_at(0.0, ReadyCause::Kind::kWorkflowStart));
  input.tasks.back().trace.attempt.read_bb = {100.0, 1};
  input.makespan = 10.0;

  const json::Value doc = analyze(input).to_json();
  EXPECT_EQ(doc.get_string("schema", ""), "bbsim.critpath.v1");
  EXPECT_DOUBLE_EQ(doc.get_number("makespan", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(doc.get_number("path_length", -1.0), 10.0);
  // All six classes appear (zero or not) in both maps, fractions sum to 1.
  double frac_sum = 0.0;
  for (const Blame b : kAllBlames) {
    EXPECT_TRUE(doc.at("blame").contains(to_string(b))) << to_string(b);
    ASSERT_TRUE(doc.at("blame_fractions").contains(to_string(b)));
    frac_sum += doc.at("blame_fractions").at(to_string(b)).as_number();
  }
  EXPECT_NEAR(frac_sum, 1.0, 1e-12);
  ASSERT_TRUE(doc.at("path").is_array());
  ASSERT_TRUE(doc.at("what_if").is_array());
  EXPECT_FALSE(doc.at("what_if").as_array().empty());
  // Pure function of its inputs: repeated analysis is byte-identical.
  EXPECT_EQ(doc.dump(2), analyze(input).to_json().dump(2));
}

// --------------------------------------------- integrated: exec::Simulation

using exec::ExecutionConfig;
using exec::Result;
using exec::Simulation;
using platform::BBMode;
using platform::PlatformSpec;
using platform::StorageKind;

/// Same tiny platform the exec tests hand-compute against: hosts x 4 cores
/// at 1 Gflop/s/core; PFS 100 B/s disk + 1000 B/s link; BB 950 B/s disk +
/// 800 B/s link; no latency or caps.
PlatformSpec tiny(StorageKind bb_kind = StorageKind::SharedBB,
                  int hosts = 1, int cores = 4) {
  PlatformSpec p;
  p.name = "tiny";
  for (int i = 0; i < hosts; ++i) {
    p.hosts.push_back({"h" + std::to_string(i), cores, 1e9, platform::kUnlimited});
  }
  platform::StorageSpec pfs;
  pfs.name = "pfs";
  pfs.kind = StorageKind::PFS;
  pfs.disk = {100.0, 100.0, platform::kUnlimited};
  pfs.link = {1000.0, 0.0};
  p.storage.push_back(pfs);
  platform::StorageSpec bb;
  bb.name = "bb";
  bb.kind = bb_kind;
  bb.mode = BBMode::Private;
  bb.disk = {950.0, 950.0, platform::kUnlimited};
  bb.link = {800.0, 0.0};
  p.storage.push_back(bb);
  p.validate_and_normalize();
  return p;
}

/// Two-task pipeline with real files, so the path sees transfer windows.
wf::Workflow pipeline_workflow() {
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_file({"mid", 400.0});
  w.add_task({"a", "compute", 4e9, 0, 4, {"in"}, {"mid"}});
  w.add_task({"b", "compute", 8e9, 0, 4, {"mid"}, {}});
  return w;
}

TEST(CritpathExec, OffByDefaultLeavesNoReportSection) {
  const Result r = Simulation(tiny(), pipeline_workflow(), ExecutionConfig()).run();
  EXPECT_TRUE(r.critpath.is_null());
  EXPECT_FALSE(r.to_json().contains("critpath"));
}

/// The report document with the opt-in "critpath" key removed — the rest
/// must be bitwise-identical to a run that never had the recorder.
std::string dump_without_critpath(const Result& r) {
  const json::Value doc = r.to_json();
  json::Object out;
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "critpath") out.set(key, value);
  }
  return json::Value(std::move(out)).dump(2);
}

TEST(CritpathExec, EnabledRunIsInvisibleOutsideItsOwnSection) {
  const Result off = Simulation(tiny(), pipeline_workflow(), ExecutionConfig()).run();
  ExecutionConfig cfg;
  cfg.critpath = true;
  const Result on = Simulation(tiny(), pipeline_workflow(), cfg).run();
  ASSERT_TRUE(on.critpath.is_object());
  EXPECT_EQ(dump_without_critpath(on), off.to_json().dump(2));
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
}

TEST(CritpathExec, PathLengthAndBlameEqualMakespanUnderAudit) {
  ExecutionConfig cfg;
  cfg.critpath = true;
  cfg.audit = true;
  const Result r = Simulation(tiny(), pipeline_workflow(), cfg).run();
  ASSERT_TRUE(r.critpath.is_object());
  EXPECT_EQ(r.critpath.get_string("schema", ""), "bbsim.critpath.v1");
  EXPECT_EQ(r.audit_violations, 0u);

  const double tol = 1e-9 * std::max(1.0, r.makespan);
  EXPECT_NEAR(r.critpath.get_number("path_length", -1.0), r.makespan, tol);
  double blame_sum = 0.0;
  for (const auto& [name, seconds] : r.critpath.at("blame").as_object()) {
    EXPECT_GE(seconds.as_number(), 0.0) << name;
    blame_sum += seconds.as_number();
  }
  EXPECT_NEAR(blame_sum, r.makespan, tol);

  // Replay oracle: baseline reproduces the makespan, every scenario helps.
  bool saw_baseline = false;
  for (const json::Value& w : r.critpath.at("what_if").as_array()) {
    const double m = w.get_number("makespan", -1.0);
    EXPECT_LE(m, r.makespan + tol) << w.get_string("scenario", "?");
    if (w.get_string("scenario", "") == "baseline") {
      saw_baseline = true;
      EXPECT_NEAR(m, r.makespan, tol);
      EXPECT_NEAR(w.get_number("speedup", -1.0), 1.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw_baseline);
}

TEST(CritpathExec, ReportByteIdenticalAcrossRepeatedRuns) {
  ExecutionConfig cfg;
  cfg.critpath = true;
  const Result r0 = Simulation(tiny(), pipeline_workflow(), cfg).run();
  const Result r1 = Simulation(tiny(), pipeline_workflow(), cfg).run();
  ASSERT_TRUE(r0.critpath.is_object());
  EXPECT_EQ(r0.critpath.dump(2), r1.critpath.dump(2));
  EXPECT_EQ(r0.to_json().dump(2), r1.to_json().dump(2));
}

TEST(CritpathExec, CrashedRunChargesRecoveryRework) {
  // Scan seeds until a crash actually kills an attempt; the lost window
  // must surface as recovery_rework while both identities keep holding.
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_task({"t", "compute", 400e9, 0, 4, {"in"}, {}});  // 100 s compute

  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    ExecutionConfig cfg;
    cfg.critpath = true;
    cfg.audit = true;
    cfg.faults = resil::FaultSpec::parse(
        "node_mtbf=60,node_repair=30,seed=" + std::to_string(seed));
    const Result r = Simulation(tiny(), w, cfg).run();
    if (r.resil_stats == nullptr || r.resil_stats->tasks_killed == 0) continue;
    found = true;
    ASSERT_TRUE(r.critpath.is_object());
    EXPECT_EQ(r.audit_violations, 0u);
    const double tol = 1e-9 * std::max(1.0, r.makespan);
    EXPECT_NEAR(r.critpath.get_number("path_length", -1.0), r.makespan, tol);
    EXPECT_GT(r.critpath.at("blame").at("recovery_rework").as_number(), 0.0);
    // no_faults replay must beat the disturbed makespan by the rework share.
    for (const json::Value& wi : r.critpath.at("what_if").as_array()) {
      if (wi.get_string("scenario", "") == "no_faults") {
        EXPECT_LT(wi.get_number("makespan", -1.0), r.makespan);
      }
    }
  }
  EXPECT_TRUE(found) << "no seed in [1,200] produced a killed attempt";
}

// ------------------------------------------ end-to-end pinned attribution

// Exact attribution of seeded runs, pinned at 1e-9 relative: the identity
// checks above would also pass if a read or a checkpoint stall were charged
// to the wrong tier, or an abort or restart latency were dropped.

struct PinnedReport {
  std::array<double, kBlameCount> blame;  ///< in kAllBlames order
  /// baseline, infinite_bb_bandwidth, infinite_pfs_bandwidth,
  /// no_queue_wait, no_faults
  std::array<double, 5> what_if;
};

void expect_report(const Result& r, const PinnedReport& want) {
  ASSERT_TRUE(r.critpath.is_object());
  const auto close = [](double got, double expected) {
    return std::abs(got - expected) <= 1e-9 * std::max(1.0, std::abs(expected));
  };
  for (const Blame b : kAllBlames) {
    const double got = r.critpath.at("blame").at(to_string(b)).as_number();
    EXPECT_PRED2(close, got, want.blame[static_cast<std::size_t>(b)]) << to_string(b);
  }
  const json::Array& what_ifs = r.critpath.at("what_if").as_array();
  ASSERT_EQ(what_ifs.size(), want.what_if.size());
  for (std::size_t i = 0; i < what_ifs.size(); ++i) {
    EXPECT_PRED2(close, what_ifs[i].get_number("makespan", -1.0), want.what_if[i])
        << what_ifs[i].get_string("scenario", "?");
  }
}

/// Node crashes, BB degradation and PFS brownouts plus `checkpoint`. On
/// one Summit node the crashes kill attempts and roll back producers whose
/// node-local outputs died with the node.
ExecutionConfig faulty_config(const char* checkpoint) {
  ExecutionConfig cfg;
  cfg.critpath = true;
  cfg.faults = resil::FaultSpec::parse(
      "node_mtbf=40,node_repair=5,seed=9,bb_mtbf=30,bb_degrade=0.25,bb_duration=5,"
      "pfs_mtbf=30,pfs_brownout=0.6,pfs_duration=7,horizon=400");
  cfg.checkpoint = resil::CheckpointSpec::parse(checkpoint);
  return cfg;
}

wf::Workflow two_pipeline_swarp() {
  wf::SwarpConfig swarp;
  swarp.pipelines = 2;
  return wf::make_swarp(swarp);
}

platform::PlatformSpec one_summit_node() {
  platform::PresetOptions popt;
  popt.compute_nodes = 1;
  return platform::summit_platform(popt);
}

TEST(CritpathExec, PinnedReportWithBbCheckpointsAbortsAndRollbacks) {
  const Result r = Simulation(one_summit_node(), two_pipeline_swarp(),
                              faulty_config("interval=15,fraction=0.1,restart=2"))
                       .run();
  expect_report(r, {{26.962255700325727, 0.49114486836350579, 25.199463999999967, 0.0,
                     147.24527753271866, 175.89935451403971},
                    {375.79749661544759, 375.30635174708408, 350.59803261544761,
                     245.22218295176827, 199.89814210140787}});
}

TEST(CritpathExec, PinnedReportWithPfsCheckpoints) {
  // Without a burst buffer every checkpoint image goes to the PFS; a
  // restarted attempt resumes from its last drained image.
  platform::PlatformSpec p = one_summit_node();
  p.storage.erase(p.storage.begin() + 1);
  p.validate_and_normalize();
  const Result r = Simulation(p, two_pipeline_swarp(),
                              faulty_config("interval=3,fraction=0.1,restart=2"))
                       .run();
  expect_report(r, {{23.962255700325727, 0.0, 26.077293663999853, 0.0, 124.8575537413453,
                     68.69566443448926},
                    {243.59276754016014, 243.59276754016014, 217.51547387616029,
                     118.73521379881484, 174.89710310567088}});
}

TEST(CritpathExec, PinnedReportWithImplicitStageInAndStageOut) {
  // No stage-in task: the staging window heads the path; final products
  // land in the BB and drain to the PFS after the last task.
  wf::GenomesConfig genomes;
  genomes.chromosomes = 1;
  ExecutionConfig cfg;
  cfg.critpath = true;
  cfg.stage_out = true;
  cfg.placement = std::make_shared<exec::FractionPolicy>(1.0, exec::Tier::BurstBuffer,
                                                         exec::Tier::BurstBuffer);
  const Result r =
      Simulation(platform::cori_platform(), wf::make_1000genomes(genomes), cfg).run();
  const json::Array& path = r.critpath.at("path").as_array();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().get_string("task", ""), "implicit_stage_in");
  EXPECT_EQ(path.back().get_string("task", ""), "stage_out");
  expect_report(r, {{460.0, 8.0642115384608566, 25.175249999999618, 0.0, 0.0, 0.0},
                    {493.23946153846049, 485.17524999999961, 468.06421153846088,
                     493.23946153846049, 493.23946153846049}});
}

// ---------------------------------------- S3: timeline x resil x critpath

constexpr const char* kFaults = "node_mtbf=40,node_repair=5,seed=9,horizon=400";
constexpr const char* kCheckpoint = "interval=15,fraction=0.1,restart=2";

ExecutionConfig faulty_timeline_config(bool critpath) {
  ExecutionConfig cfg;
  cfg.collect_timeline = true;
  cfg.critpath = critpath;
  cfg.faults = resil::FaultSpec::parse(kFaults);
  cfg.checkpoint = resil::CheckpointSpec::parse(kCheckpoint);
  return cfg;
}

struct TimelineCounts {
  int hosts_down_samples = 0;
  int flow_starts = 0;
  int flow_finishes = 0;
};

TimelineCounts count_timeline(const json::Value& perfetto) {
  TimelineCounts c;
  for (const json::Value& e : perfetto.at("traceEvents").as_array()) {
    const std::string ph = e.get_string("ph", "");
    if (ph == "C" && e.get_string("name", "") == "resil.hosts_down") {
      ++c.hosts_down_samples;
    } else if (ph == "s") {
      ++c.flow_starts;
    } else if (ph == "f") {
      ++c.flow_finishes;
    }
  }
  return c;
}

TEST(CritpathExec, TimelineCarriesHostsDownCounterAndBalancedFlowLinks) {
  const Result r =
      Simulation(tiny(), pipeline_workflow(), faulty_timeline_config(true)).run();
  ASSERT_NE(r.timeline, nullptr);
  const json::Value perfetto = r.timeline->to_perfetto();
  const TimelineCounts c = count_timeline(perfetto);
  // The resil layer samples hosts_down at setup and on every crash/repair.
  EXPECT_GE(c.hosts_down_samples, 1);
  // The a -> b dependency crossing puts at least one link on the path, and
  // every flow start has its finish (the check_trace.py balance invariant).
  EXPECT_GE(c.flow_starts, 1);
  EXPECT_EQ(c.flow_starts, c.flow_finishes);
}

TEST(CritpathExec, FaultyTimelineByteIdenticalAcrossRuns) {
  const Result r0 =
      Simulation(tiny(), pipeline_workflow(), faulty_timeline_config(true)).run();
  const Result r1 =
      Simulation(tiny(), pipeline_workflow(), faulty_timeline_config(true)).run();
  ASSERT_NE(r0.timeline, nullptr);
  ASSERT_NE(r1.timeline, nullptr);
  EXPECT_EQ(r0.timeline->to_perfetto().dump(2), r1.timeline->to_perfetto().dump(2));
}

TEST(CritpathExec, TimelineWithoutCritpathHasNoFlowEvents) {
  const Result r =
      Simulation(tiny(), pipeline_workflow(), faulty_timeline_config(false)).run();
  ASSERT_NE(r.timeline, nullptr);
  const TimelineCounts c = count_timeline(r.timeline->to_perfetto());
  EXPECT_EQ(c.flow_starts, 0);
  EXPECT_EQ(c.flow_finishes, 0);
  EXPECT_GE(c.hosts_down_samples, 1);  // the counter track is critpath-free
}

// S3 determinism matrix: a faulty sweep with "critpath": true must lift the
// attribution into every run record and stay byte-identical across workers.
sweep::SweepSpec critpath_sweep_spec() {
  return sweep::parse_sweep_spec(json::parse(R"({
    "name": "critpath-determinism",
    "base": {"workflow": "swarp", "testbed": "cori-private", "pipelines": 1,
             "critpath": true,
             "faults": ")" + std::string(kFaults) + R"(",
             "checkpoint": ")" + std::string(kCheckpoint) + R"("},
    "axes": {"policy": ["all_pfs", "all_bb"], "seed": [7, 8]}
  })"));
}

std::string critpath_sweep_dump(int jobs) {
  cli::SweepCliOptions opt;
  opt.jobs = jobs;
  opt.quiet = true;
  return cli::run_sweep_to_json(critpath_sweep_spec(), opt).dump(2);
}

TEST(CritpathExec, SweepReportByteIdenticalAcrossJobs1And8) {
  const std::string serial = critpath_sweep_dump(/*jobs=*/1);
  EXPECT_NE(serial.find("\"schema\": \"bbsim.sweep.v1\""), std::string::npos);
  EXPECT_NE(serial.find("\"ok\": true"), std::string::npos);
  // The lifted attribution summary rides on every run record.
  EXPECT_NE(serial.find("\"blame_fractions\""), std::string::npos);
  EXPECT_NE(serial.find("\"node_crashes\""), std::string::npos);
  EXPECT_EQ(critpath_sweep_dump(/*jobs=*/8), serial);
}

}  // namespace
}  // namespace bbsim::critpath
