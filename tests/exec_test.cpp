// Unit tests for the execution engine: scheduling, I/O windows, staging,
// placement, pinning, demotion -- with hand-computed timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "exec/engine.hpp"
#include "exec/pinning.hpp"
#include "exec/placement.hpp"
#include "platform/presets.hpp"
#include "workflow/swarp.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::exec {
namespace {

using platform::BBMode;
using platform::PlatformSpec;
using platform::StorageKind;

/// 1 host x 4 cores at 1 Gflop/s/core; PFS 100 B/s disk, 1000 B/s link;
/// BB 950 B/s disk, 800 B/s link; no latency/caps/metadata.
PlatformSpec tiny(StorageKind bb_kind = StorageKind::SharedBB,
                  BBMode mode = BBMode::Private, int hosts = 1, int cores = 4) {
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
  bb.mode = mode;
  bb.disk = {950.0, 950.0, platform::kUnlimited};
  bb.link = {800.0, 0.0};
  p.storage.push_back(bb);
  p.validate_and_normalize();
  return p;
}

/// Names of a list of file ids (placement policies answer with ids).
std::vector<std::string> file_names(const wf::Workflow& w,
                                    const std::vector<wf::FileId>& ids) {
  std::vector<std::string> out;
  for (const wf::FileId f : ids) out.push_back(w.file(f).name);
  return out;
}

wf::Workflow single_task(double flops = 4e9, int cores = 4, double alpha = 0.0) {
  wf::Workflow w;
  w.add_task({"t", "compute", flops, alpha, cores, {}, {}});
  return w;
}

TEST(Engine, PureComputeDuration) {
  // 4e9 flops at 1e9 flop/s/core on 4 cores, alpha 0 -> 1 s.
  Simulation sim(tiny(), single_task(), {});
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
  EXPECT_DOUBLE_EQ(r.tasks.at("t").compute_time(), 1.0);
  EXPECT_DOUBLE_EQ(r.tasks.at("t").io_time(), 0.0);
}

TEST(Engine, AmdahlAlphaSlowsParallelTask) {
  // alpha = 1 -> fully serial: 4 s despite 4 cores.
  Simulation sim(tiny(), single_task(4e9, 4, 1.0), {});
  EXPECT_DOUBLE_EQ(sim.run().makespan, 4.0);
}

TEST(Engine, ReadComputeWritePhases) {
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_file({"out", 500.0});
  w.add_task({"t", "compute", 4e9, 0, 4, {"in"}, {"out"}});
  ExecutionConfig cfg;
  cfg.placement = all_pfs_policy();
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  const TaskRecord& rec = r.tasks.at("t");
  EXPECT_DOUBLE_EQ(rec.read_time(), 10.0);    // 1000 B at 100 B/s
  EXPECT_DOUBLE_EQ(rec.compute_time(), 1.0);  // 4e9 / (4 * 1e9)
  EXPECT_DOUBLE_EQ(rec.write_time(), 5.0);    // 500 B at 100 B/s
  EXPECT_DOUBLE_EQ(r.makespan, 16.0);
  EXPECT_NEAR(rec.lambda_io(), 15.0 / 16.0, 1e-9);
  EXPECT_DOUBLE_EQ(rec.bytes_read, 1000.0);
  EXPECT_DOUBLE_EQ(rec.bytes_written, 500.0);
}

TEST(Engine, DependencyChainSerialises) {
  wf::Workflow w;
  w.add_file({"mid", 0.0});
  w.add_task({"a", "compute", 4e9, 0, 4, {}, {"mid"}});
  w.add_task({"b", "compute", 4e9, 0, 4, {"mid"}, {}});
  Simulation sim(tiny(), w, {});
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_GE(r.tasks.at("b").t_start, r.tasks.at("a").t_end);
}

TEST(Engine, CoreContentionQueuesTasks) {
  wf::Workflow w;
  w.add_task({"a", "c", 4e9, 0, 4, {}, {}});
  w.add_task({"b", "c", 4e9, 0, 4, {}, {}});
  Simulation sim(tiny(), w, {});  // one 4-core host: b waits for a
  EXPECT_DOUBLE_EQ(sim.run().makespan, 2.0);
}

TEST(Engine, IndependentTasksPackOntoFreeCores) {
  wf::Workflow w;
  w.add_task({"a", "c", 2e9, 0, 2, {}, {}});
  w.add_task({"b", "c", 2e9, 0, 2, {}, {}});
  Simulation sim(tiny(), w, {});  // both fit the 4-core host
  EXPECT_DOUBLE_EQ(sim.run().makespan, 1.0);
}

TEST(Engine, MultiHostSpreadsLoad) {
  wf::Workflow w;
  w.add_task({"a", "c", 4e9, 0, 4, {}, {}});
  w.add_task({"b", "c", 4e9, 0, 4, {}, {}});
  Simulation sim(tiny(StorageKind::SharedBB, BBMode::Striped, 2), w, {});
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
  EXPECT_NE(r.tasks.at("a").host, r.tasks.at("b").host);
}

TEST(Engine, IoWindowLimitsConcurrentReads) {
  // 1-core task with 4 inputs of 100 B: reads are sequential (window = 1),
  // 1 s each at 100 B/s -> 4 s of read time. With 4 cores they all share
  // the 100 B/s disk concurrently -> also 4 s. Distinguish via a stream cap.
  PlatformSpec p = tiny();
  p.storage[0].stream_bw = 50.0;  // a single stream gets at most 50 B/s
  wf::Workflow w;
  for (int i = 0; i < 4; ++i) w.add_file({"f" + std::to_string(i), 100.0});
  w.add_task({"t", "c", 0.0, 0, 1, {"f0", "f1", "f2", "f3"}, {}});
  ExecutionConfig cfg;
  cfg.placement = all_pfs_policy();
  Simulation sim(std::move(p), w, cfg);
  const Result r = sim.run();
  // Sequential: 4 files x (100 B / 50 B/s) = 8 s.
  EXPECT_DOUBLE_EQ(r.tasks.at("t").read_time(), 8.0);

  // Same workflow with 4 cores: 4 concurrent capped streams share the
  // 100 B/s disk -> 25 B/s each -> 4 s total.
  PlatformSpec p2 = tiny();
  p2.storage[0].stream_bw = 50.0;
  wf::Workflow w2;
  for (int i = 0; i < 4; ++i) w2.add_file({"f" + std::to_string(i), 100.0});
  w2.add_task({"t", "c", 0.0, 0, 4, {"f0", "f1", "f2", "f3"}, {}});
  Simulation sim2(std::move(p2), w2, cfg);
  EXPECT_DOUBLE_EQ(sim2.run().tasks.at("t").read_time(), 4.0);
}

TEST(Engine, StageInTaskCopiesSequentially) {
  // Two 1000 B inputs staged PFS -> BB at 100 B/s each, sequentially.
  wf::Workflow w;
  w.add_file({"i0", 1000.0});
  w.add_file({"i1", 1000.0});
  w.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"t", "c", 0.0, 0, 1, {"i0", "i1"}, {}});
  w.add_control_dep("stage_in", "t");
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.stage_in_duration, 20.0);
  // Task then reads from the BB: 2 x (1000 / 800) sequential (1 core).
  EXPECT_NEAR(r.tasks.at("t").read_time(), 2.5, 1e-9);
  EXPECT_NEAR(r.makespan, 22.5, 1e-9);
  EXPECT_NEAR(r.workflow_span, 2.5, 1e-9);
}

TEST(Engine, InstantStagingIsFree) {
  wf::Workflow w;
  w.add_file({"i0", 1000.0});
  w.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"t", "c", 0.0, 0, 1, {"i0"}, {}});
  w.add_control_dep("stage_in", "t");
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  cfg.stage_in_mode = StageInMode::Instant;
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.stage_in_duration, 0.0);
  EXPECT_NEAR(r.makespan, 1.25, 1e-9);  // 1000 B / 800 B/s from the BB
}

TEST(Engine, FractionPolicyStagesPrefix) {
  const wf::Workflow w = wf::make_swarp({});
  FractionPolicy half(0.5, Tier::BurstBuffer);
  const auto staged = half.files_to_stage(w);
  EXPECT_EQ(staged.size(), 16u);  // ceil(0.5 * 32)
  FractionPolicy none(0.0, Tier::PFS);
  EXPECT_TRUE(none.files_to_stage(w).empty());
  FractionPolicy all(1.0, Tier::BurstBuffer);
  EXPECT_EQ(all.files_to_stage(w).size(), 32u);
}

TEST(Engine, IntermediateTierRouting) {
  // Intermediates to BB: consumer reads at BB speed.
  wf::Workflow w;
  w.add_file({"mid", 800.0});
  w.add_task({"a", "c", 0.0, 0, 1, {}, {"mid"}});
  w.add_task({"b", "c", 0.0, 0, 1, {"mid"}, {}});
  ExecutionConfig cfg;
  cfg.placement = std::make_shared<FractionPolicy>(0.0, Tier::BurstBuffer);
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  EXPECT_DOUBLE_EQ(r.tasks.at("a").write_time(), 1.0);  // 800 B at 800 B/s
  EXPECT_DOUBLE_EQ(r.tasks.at("b").read_time(), 1.0);

  // Intermediates to PFS: 8 s each way.
  wf::Workflow w2;
  w2.add_file({"mid", 800.0});
  w2.add_task({"a", "c", 0.0, 0, 1, {}, {"mid"}});
  w2.add_task({"b", "c", 0.0, 0, 1, {"mid"}, {}});
  ExecutionConfig cfg2;
  cfg2.placement = all_pfs_policy();
  Simulation sim2(tiny(), w2, cfg2);
  const Result r2 = sim2.run();
  EXPECT_DOUBLE_EQ(r2.tasks.at("a").write_time(), 8.0);
  EXPECT_DOUBLE_EQ(r2.tasks.at("b").read_time(), 8.0);
}

TEST(Engine, FinalOutputsGoToPfsUnderAllBB) {
  wf::Workflow w;
  w.add_file({"out", 100.0});
  w.add_task({"a", "c", 0.0, 0, 1, {}, {"out"}});
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  Simulation sim(tiny(), w, cfg);
  sim.run();
  EXPECT_TRUE(sim.storage().pfs().has_file(w.file_id("out")));
  EXPECT_FALSE(sim.storage().burst_buffer()->has_file(w.file_id("out")));
}

TEST(Engine, NodeLocalDemotionForCrossHostConsumers) {
  // The shared file forces cross-host access: producer on one host,
  // consumers pinned elsewhere -> demote to PFS.
  wf::Workflow w;
  w.add_file({"shared", 100.0});
  w.add_task({"p", "c", 40e9, 0, 4, {}, {"shared"}});
  // 17 readers make "shared" a broadcast file that glues nothing, so the
  // consumers (no compute) are dealt onto the host the producer leaves
  // idle. Were it glued, the capacity limit would allow it (p carries all
  // the weight) and every task would share p's host.
  for (int c = 0; c < 17; ++c) {
    const std::string sink = "sink" + std::to_string(c);
    w.add_file({sink, 1.0});
    w.add_task({"c" + std::to_string(c), "c", 0.0, 0, 4, {"shared"}, {sink}});
  }
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  Simulation sim(tiny(StorageKind::NodeLocalBB, BBMode::Private, 2), w, cfg);
  const Result r = sim.run();
  // The producer's BB write was demoted because a consumer lives elsewhere.
  EXPECT_GE(r.demoted_writes, 1u);
  EXPECT_TRUE(sim.storage().pfs().has_file(w.file_id("shared")));
}

TEST(Engine, PinningKeepsChainsLocal) {
  // Two independent 2-task chains on a 2-host node-local platform: each
  // chain runs on one host and its intermediate stays in the local BB.
  wf::Workflow w;
  for (int c = 0; c < 2; ++c) {
    const std::string mid = "mid" + std::to_string(c);
    w.add_file({mid, 800.0});
    w.add_task({"p" + std::to_string(c), "c", 4e9, 0, 4, {}, {mid}});
    w.add_task({"q" + std::to_string(c), "c", 4e9, 0, 4, {mid}, {}});
  }
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  Simulation sim(tiny(StorageKind::NodeLocalBB, BBMode::Private, 2), w, cfg);
  const Result r = sim.run();
  EXPECT_EQ(r.demoted_writes, 0u);
  EXPECT_EQ(r.tasks.at("p0").host, r.tasks.at("q0").host);
  EXPECT_EQ(r.tasks.at("p1").host, r.tasks.at("q1").host);
  EXPECT_NE(r.tasks.at("p0").host, r.tasks.at("p1").host);
}

TEST(Engine, ForceCoresOverride) {
  wf::Workflow w = single_task(4e9, 4);
  ExecutionConfig cfg;
  cfg.force_cores = 1;
  Simulation sim(tiny(), w, cfg);
  EXPECT_DOUBLE_EQ(sim.run().makespan, 4.0);  // 4e9 flops on 1 core
}

TEST(Engine, OversizedTaskRejected) {
  wf::Workflow w = single_task(1e9, 8);  // 8 cores > 4-core host
  EXPECT_THROW(Simulation(tiny(), w, {}).run(), util::ConfigError);
}

TEST(Engine, RunTwiceRejected) {
  Simulation sim(tiny(), single_task(), {});
  sim.run();
  EXPECT_THROW(sim.run(), util::InvariantError);
}

TEST(Engine, ComputeNoiseHookScalesDurations) {
  ExecutionConfig cfg;
  cfg.compute_noise = [](const wf::Task&, std::size_t) { return 2.0; };
  Simulation sim(tiny(), single_task(), cfg);
  EXPECT_DOUBLE_EQ(sim.run().makespan, 2.0);
}

TEST(Engine, TraceRecordsLifecycle) {
  Simulation sim(tiny(), single_task(), {});
  const Result r = sim.run();
  std::vector<std::string> kinds;
  for (const TraceEvent& e : r.trace) kinds.emplace_back(to_string(e.kind));
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "task_ready"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "task_start"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "task_end"), kinds.end());
  // Times are monotone.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].time, r.trace[i - 1].time);
  }
}

TEST(Engine, TraceDisabled) {
  ExecutionConfig cfg;
  cfg.collect_trace = false;
  Simulation sim(tiny(), single_task(), cfg);
  EXPECT_TRUE(sim.run().trace.empty());
}

TEST(Engine, ResultJsonSerialises) {
  Simulation sim(tiny(), single_task(), {});
  const json::Value v = sim.run().to_json();
  EXPECT_TRUE(v.contains("makespan"));
  EXPECT_EQ(v.at("tasks").as_array().size(), 1u);
}

TEST(Engine, StorageCountersTrackBytes) {
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_task({"t", "c", 0.0, 0, 1, {"in"}, {}});
  ExecutionConfig cfg;
  cfg.placement = all_pfs_policy();
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  double pfs_bytes = 0;
  for (const StorageCounters& s : r.storage) {
    if (s.service == "pfs") pfs_bytes = s.bytes_served;
  }
  EXPECT_DOUBLE_EQ(pfs_bytes, 1000.0);
}

// ------------------------------------------------------- placement policies

TEST(Policies, SizeThreshold) {
  wf::Workflow w;
  w.add_file({"small", 10.0});
  w.add_file({"big", 1000.0});
  w.add_task({"t", "c", 0, 0, 1, {"small", "big"}, {}});
  SizeThresholdPolicy policy(100.0);
  EXPECT_EQ(file_names(w, policy.files_to_stage(w)), (std::vector<std::string>{"small"}));
  SizeThresholdPolicy inverted(100.0, true);
  EXPECT_EQ(file_names(w, inverted.files_to_stage(w)), (std::vector<std::string>{"big"}));
}

TEST(Policies, LocalitySingleConsumer) {
  wf::Workflow w;
  w.add_file({"solo", 10.0});
  w.add_file({"popular", 10.0});
  w.add_file({"o1", 1.0});
  w.add_file({"o2", 1.0});
  w.add_task({"a", "c", 0, 0, 1, {"solo", "popular"}, {"o1"}});
  w.add_task({"b", "c", 0, 0, 1, {"popular", "o1"}, {"o2"}});
  LocalityPolicy policy;
  EXPECT_EQ(file_names(w, policy.files_to_stage(w)), (std::vector<std::string>{"solo"}));
  const wf::TaskId a = w.task_id("a");
  const wf::TaskId b = w.task_id("b");
  EXPECT_EQ(policy.place_output(w, a, w.file_id("o1")), Tier::BurstBuffer);  // 1 reader
  EXPECT_EQ(policy.place_output(w, b, w.file_id("o2")), Tier::PFS);          // final
}

TEST(Policies, GreedyBytesRespectsBudget) {
  wf::Workflow w;
  w.add_file({"a", 600.0});
  w.add_file({"b", 500.0});
  w.add_file({"c", 100.0});
  w.add_task({"t1", "c", 0, 0, 1, {"a", "b", "c"}, {}});
  w.add_task({"t2", "c", 0, 0, 1, {"a"}, {}});  // a has 2 consumers
  GreedyBytesPolicy policy(700.0);
  const auto staged = policy.files_to_stage(w);
  // "a" has the highest benefit (600 x 2); then budget only fits "c".
  EXPECT_EQ(file_names(w, staged), (std::vector<std::string>{"a", "c"}));
}

TEST(Policies, NamesAreDescriptive) {
  EXPECT_NE(FractionPolicy(0.5, Tier::BurstBuffer).name().find("50%"),
            std::string::npos);
  EXPECT_NE(all_pfs_policy()->name().find("0%"), std::string::npos);
  EXPECT_NE(SizeThresholdPolicy(1e6).name().find("1MB"), std::string::npos);
}

// ---------------------------------------------------------------- pinning

TEST(Pinning, ComponentsLandOnDistinctHosts) {
  const wf::Workflow w = wf::make_swarp({.pipelines = 4, .with_stage_in = false});
  platform::PresetOptions opt;
  opt.compute_nodes = 4;
  const auto homes = compute_home_hosts(w, platform::summit_platform(opt));
  // Each pipeline is one component; 4 pipelines on 4 hosts -> all 4 used,
  // and resample/combine of the same pipeline share a home.
  std::set<std::size_t> used(homes.begin(), homes.end());
  EXPECT_EQ(used.size(), 4u);
  EXPECT_EQ(homes[w.task_id("resample_002")], homes[w.task_id("combine_002")]);
}

TEST(Pinning, BroadcastFilesDoNotGlue) {
  // Two chains sharing one broadcast input (17 readers) should still split.
  // Only p0 computes, so the capacity limit alone would let "bcast" glue
  // every task into one component on one host.
  wf::Workflow w;
  w.add_file({"bcast", 1.0});
  for (int c = 0; c < 2; ++c) {
    const std::string mid = "m" + std::to_string(c);
    w.add_file({mid, 1.0});
    w.add_task({"p" + std::to_string(c), "c", c == 0 ? 1e9 : 0.0, 0, 1, {"bcast"}, {mid}});
    w.add_task({"q" + std::to_string(c), "c", 0.0, 0, 1, {mid}, {}});
  }
  for (int r = 2; r < 17; ++r) {
    w.add_task({"r" + std::to_string(r), "c", 0.0, 0, 1, {"bcast"}, {}});
  }
  platform::PresetOptions opt;
  opt.compute_nodes = 2;
  const auto homes = compute_home_hosts(w, platform::summit_platform(opt));
  std::set<std::size_t> used(homes.begin(), homes.end());
  EXPECT_EQ(used.size(), 2u);
}

}  // namespace
}  // namespace bbsim::exec

namespace scheduler_tests {

using namespace bbsim;
using namespace bbsim::exec;
using platform::PlatformSpec;
using platform::StorageKind;
using platform::BBMode;

PlatformSpec tiny1() {
  PlatformSpec p;
  p.name = "tiny1";
  p.hosts.push_back({"h0", 1, 1e9, platform::kUnlimited});
  platform::StorageSpec pfs;
  pfs.name = "pfs";
  pfs.kind = StorageKind::PFS;
  pfs.disk = {1e9, 1e9, platform::kUnlimited};
  pfs.link = {1e9, 0.0};
  p.storage.push_back(pfs);
  p.validate_and_normalize();
  return p;
}

TEST(Scheduler, PolicyNames) {
  EXPECT_STREQ(to_string(SchedulerPolicy::Fcfs), "fcfs");
  EXPECT_STREQ(to_string(SchedulerPolicy::CriticalPathFirst), "critical_path");
  EXPECT_STREQ(to_string(SchedulerPolicy::LargestFirst), "largest_first");
  EXPECT_STREQ(to_string(SchedulerPolicy::SmallestFirst), "smallest_first");
}

TEST(Scheduler, LargestFirstRunsBigTaskFirst) {
  wf::Workflow w;
  w.add_task({"small", "c", 1e9, 0, 1, {}, {}});
  w.add_task({"big", "c", 4e9, 0, 1, {}, {}});
  ExecutionConfig cfg;
  cfg.scheduler = SchedulerPolicy::LargestFirst;
  Simulation sim(tiny1(), w, cfg);
  const Result r = sim.run();
  EXPECT_LT(r.tasks.at("big").t_start, r.tasks.at("small").t_start);
}

TEST(Scheduler, SmallestFirstRunsSmallTaskFirst) {
  wf::Workflow w;
  w.add_task({"big", "c", 4e9, 0, 1, {}, {}});
  w.add_task({"small", "c", 1e9, 0, 1, {}, {}});
  ExecutionConfig cfg;
  cfg.scheduler = SchedulerPolicy::SmallestFirst;
  Simulation sim(tiny1(), w, cfg);
  const Result r = sim.run();
  EXPECT_LT(r.tasks.at("small").t_start, r.tasks.at("big").t_start);
}

TEST(Scheduler, CriticalPathFirstPrefersLongChain) {
  // chain_head leads a 3-task chain; lone is heavier than chain_head alone
  // but has no successors. CP-first must start chain_head first.
  wf::Workflow w;
  w.add_file({"c1", 0.0});
  w.add_file({"c2", 0.0});
  w.add_task({"chain_head", "c", 1e9, 0, 1, {}, {"c1"}});
  w.add_task({"chain_mid", "c", 3e9, 0, 1, {"c1"}, {"c2"}});
  w.add_task({"chain_tail", "c", 3e9, 0, 1, {"c2"}, {}});
  w.add_task({"lone", "c", 2e9, 0, 1, {}, {}});
  ExecutionConfig cfg;
  cfg.scheduler = SchedulerPolicy::CriticalPathFirst;
  Simulation sim(tiny1(), w, cfg);
  const Result r = sim.run();
  EXPECT_LT(r.tasks.at("chain_head").t_start, r.tasks.at("lone").t_start);
  // FCFS (insertion order) would have run lone before chain_mid/tail; the
  // critical-path order finishes the whole DAG no later than FCFS.
  ExecutionConfig fcfs_cfg;
  Simulation fcfs(tiny1(), w, fcfs_cfg);
  EXPECT_LE(r.makespan, fcfs.run().makespan + 1e-9);
}

TEST(StageOut, DrainsBBOutputsToPfs) {
  wf::Workflow w;
  w.add_file({"out", 800.0});
  w.add_task({"t", "c", 0.0, 0, 1, {}, {"out"}});
  ExecutionConfig cfg;
  // Policy keeps even final outputs in the BB; stage-out must drain them.
  cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer,
                                                   Tier::BurstBuffer);
  cfg.stage_out = true;
  Simulation sim(tiny(), w, cfg);
  const Result r = sim.run();
  EXPECT_GT(r.stage_out_duration, 0.0);
  EXPECT_TRUE(sim.storage().pfs().has_file(w.file_id("out")));
  // Drain rate: min(bb read 950/800 link, pfs write 100) = 100 B/s -> 8 s.
  EXPECT_NEAR(r.stage_out_duration, 8.0, 0.1);
  EXPECT_NEAR(r.makespan, r.workflow_span + 8.0, 0.1);
}

TEST(StageOut, NoopWhenOutputsAlreadyOnPfs) {
  wf::Workflow w;
  w.add_file({"out", 100.0});
  w.add_task({"t", "c", 0.0, 0, 1, {}, {"out"}});
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();  // final outputs -> PFS directly
  cfg.stage_out = true;
  Simulation sim(tiny(), w, cfg);
  EXPECT_DOUBLE_EQ(sim.run().stage_out_duration, 0.0);
}

TEST(Eviction, LruEvictsStagedInputsToMakeRoom) {
  // BB capacity fits the staged inputs but not the intermediate write;
  // eviction should kick out the least-recently-read staged file.
  platform::PlatformSpec p = tiny();
  p.storage[1].disk.capacity = 2000.0;
  wf::Workflow w;
  w.add_file({"in_a", 900.0});
  w.add_file({"in_b", 900.0});
  w.add_file({"mid", 900.0});
  w.add_task({"a", "c", 0.0, 0, 1, {"in_a", "in_b"}, {"mid"}});
  w.add_task({"b", "c", 0.0, 0, 1, {"mid"}, {}});
  ExecutionConfig cfg;
  cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
  cfg.stage_in_mode = StageInMode::Instant;
  cfg.bb_eviction = true;
  Simulation sim(std::move(p), w, cfg);
  const Result r = sim.run();
  EXPECT_GE(r.evicted_files, 1u);
  EXPECT_EQ(r.demoted_writes, 0u);  // the write fit after eviction
  EXPECT_TRUE(sim.storage().burst_buffer()->has_file(w.file_id("mid")));
}

TEST(Eviction, EvictsImplicitlyStagedInputsInTaskMode) {
  // The same squeeze in the default Task mode without a stage-in task: the
  // implicit stage-in's files stay eviction candidates.
  platform::PlatformSpec p = tiny();
  p.storage[1].disk.capacity = 2000.0;
  wf::Workflow w;
  w.add_file({"in_a", 900.0});
  w.add_file({"in_b", 900.0});
  w.add_file({"mid", 900.0});
  w.add_task({"a", "c", 0.0, 0, 1, {"in_a", "in_b"}, {"mid"}});
  w.add_task({"b", "c", 0.0, 0, 1, {"mid"}, {}});
  ExecutionConfig cfg;
  cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
  cfg.bb_eviction = true;
  Simulation sim(std::move(p), w, cfg);
  const Result r = sim.run();
  EXPECT_GT(r.stage_in_duration, 0.0);
  EXPECT_GE(r.evicted_files, 1u);
  EXPECT_EQ(r.demoted_writes, 0u);
  EXPECT_TRUE(sim.storage().burst_buffer()->has_file(w.file_id("mid")));
}

TEST(Eviction, WithoutEvictionWriteDemotes) {
  platform::PlatformSpec p = tiny();
  p.storage[1].disk.capacity = 2000.0;
  wf::Workflow w;
  w.add_file({"in_a", 900.0});
  w.add_file({"in_b", 900.0});
  w.add_file({"mid", 900.0});
  w.add_task({"a", "c", 0.0, 0, 1, {"in_a", "in_b"}, {"mid"}});
  w.add_task({"b", "c", 0.0, 0, 1, {"mid"}, {}});
  ExecutionConfig cfg;
  cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
  cfg.stage_in_mode = StageInMode::Instant;
  Simulation sim(std::move(p), w, cfg);
  const Result r = sim.run();
  EXPECT_EQ(r.evicted_files, 0u);
  EXPECT_EQ(r.demoted_writes, 1u);
  EXPECT_TRUE(sim.storage().pfs().has_file(w.file_id("mid")));
}

TEST(Eviction, SkipsStagingWhenFullWithoutEviction) {
  platform::PlatformSpec p = tiny();
  p.storage[1].disk.capacity = 1000.0;
  wf::Workflow w;
  w.add_file({"in_a", 900.0});
  w.add_file({"in_b", 900.0});
  w.add_task({"a", "c", 0.0, 0, 1, {"in_a", "in_b"}, {}});
  ExecutionConfig cfg;
  cfg.placement = std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer);
  cfg.stage_in_mode = StageInMode::Instant;
  Simulation sim(std::move(p), w, cfg);
  const Result r = sim.run();
  EXPECT_EQ(r.skipped_stage_files, 1u);
}

TEST(MultiStageIn, PerPipelineStageInsPartitionFiles) {
  wf::SwarpConfig scfg;
  scfg.pipelines = 2;
  scfg.cores_per_task = 1;
  scfg.stage_in_per_pipeline = true;
  const wf::Workflow w = wf::make_swarp(scfg);
  EXPECT_EQ(w.entry_tasks().size(), 2u);
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  Simulation sim(tiny(StorageKind::SharedBB, BBMode::Private, 1, 64), w, cfg);
  const Result r = sim.run();
  // Each stage-in moved exactly its own pipeline's 32 files.
  const double per_pipeline_bytes = 16 * (32.0 + 16.0) * 1024 * 1024;
  EXPECT_NEAR(r.tasks.at("stage_in_000").bytes_written, per_pipeline_bytes, 1.0);
  EXPECT_NEAR(r.tasks.at("stage_in_001").bytes_written, per_pipeline_bytes, 1.0);
  // And they overlapped (both started at t=0 on free cores).
  EXPECT_DOUBLE_EQ(r.tasks.at("stage_in_000").t_start, 0.0);
  EXPECT_DOUBLE_EQ(r.tasks.at("stage_in_001").t_start, 0.0);
}

}  // namespace scheduler_tests

namespace stage_width_tests {

using namespace bbsim;
using namespace bbsim::exec;

TEST(StageWidth, ParallelStagingBoundedByPhysics) {
  // Two staged files: sequential staging takes 2 x t_file; with width 2 the
  // transfers share the PFS read path, so the total is the same aggregate
  // time -- but with per-file *latency* dominating, width 2 halves it.
  platform::PlatformSpec p = exec::tiny();
  p.storage[1].stage_latency = 10.0;  // per-file overhead dominates
  wf::Workflow w;
  w.add_file({"i0", 100.0});
  w.add_file({"i1", 100.0});
  w.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"t", "c", 0.0, 0, 1, {"i0", "i1"}, {}});
  w.add_control_dep("stage_in", "t");

  auto run_width = [&](int width) {
    ExecutionConfig cfg;
    cfg.placement = all_bb_policy();
    cfg.stage_in_width = width;
    Simulation sim(p, w, cfg);
    return sim.run().stage_in_duration;
  };
  const double seq = run_width(1);
  const double par = run_width(2);
  // Sequential: 2 x (10 latency + 1 transfer) = 22; parallel: ~12.
  EXPECT_NEAR(seq, 22.0, 0.1);
  EXPECT_NEAR(par, 12.0, 0.1);
}

TEST(StageWidth, InvalidWidthClampedToOne) {
  wf::Workflow w;
  w.add_file({"i0", 100.0});
  w.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"t", "c", 0.0, 0, 1, {"i0"}, {}});
  w.add_control_dep("stage_in", "t");
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  cfg.stage_in_width = 0;  // engine clamps
  Simulation sim(exec::tiny(), w, cfg);
  EXPECT_NO_THROW(sim.run());
}

}  // namespace stage_width_tests

namespace dispatch_tests {

using namespace bbsim;
using namespace bbsim::exec;

/// A stage-in whose every file is skipped (the BB cannot hold any of
/// them) finishes synchronously inside try_schedule: its finish_task frees
/// the core, readies its children and schedules again before the outer
/// scan resumes. The ready queue mixes core counts and its head ("wide")
/// does not fit when the stage-in is dispatched, so the outer scan must
/// start over instead of resuming at a position the nested pass rewrote.
wf::Workflow sync_stage_in_workflow() {
  wf::Workflow w;
  w.add_file({"in_x", 100.0});
  w.add_file({"in_y", 100.0});
  w.add_task({"hog", "c", 12e9, 0, 3, {}, {}});
  w.add_task({"wide", "c", 8e9, 0, 4, {}, {}});
  w.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"x", "c", 1e9, 0, 1, {"in_x"}, {}});
  w.add_task({"y", "c", 1.5e9, 0, 2, {"in_y"}, {}});
  w.add_task({"t1", "c", 4e9, 0, 1, {}, {}});
  w.add_task({"t2", "c", 3e9, 0, 2, {}, {}});
  w.add_control_dep("stage_in", "t1");
  w.add_control_dep("stage_in", "t2");
  return w;
}

Result run_sync_stage_in(SchedulerPolicy policy) {
  // h0 has 4 cores, h1 only 2, so "wide" fits nowhere once "hog" holds h0.
  platform::PlatformSpec p = exec::tiny(StorageKind::SharedBB, BBMode::Striped, 2);
  p.hosts[1].cores = 2;
  p.storage[1].disk.capacity = 10.0;  // smaller than every staged file
  ExecutionConfig cfg;
  cfg.placement = all_bb_policy();
  cfg.scheduler = policy;
  cfg.audit = true;
  return Simulation(std::move(p), sync_stage_in_workflow(), cfg).run();
}

struct Dispatch {
  std::size_t host;
  double t_start;
};

void expect_dispatch(const Result& r, const std::map<std::string, Dispatch>& want) {
  ASSERT_EQ(r.tasks.size(), want.size());
  for (const auto& [name, d] : want) {
    EXPECT_EQ(r.tasks.at(name).host, d.host) << name;
    EXPECT_DOUBLE_EQ(r.tasks.at(name).t_start, d.t_start) << name;
  }
}

TEST(Dispatch, SynchronousStageInUnderFcfs) {
  // t=0 queue [hog wide stage_in x y]: hog -> h0 (1 core left); wide fits
  // nowhere; stage_in -> h1, skips both files and finishes at once, which
  // readies t1 and t2 and schedules again: x -> h1, t1 -> h0 (tie, lowest
  // index). x ends at 2 (1 s read + 1 s compute) -> y on h1; y ends at
  // 3.75 -> t2 on h1; hog and t1 end at 4 -> wide on h0.
  const Result r = run_sync_stage_in(SchedulerPolicy::Fcfs);
  EXPECT_EQ(r.skipped_stage_files, 2u);
  EXPECT_EQ(r.audit_violations, 0u);
  expect_dispatch(r, {{"hog", {0, 0.0}},
                      {"wide", {0, 4.0}},
                      {"stage_in", {1, 0.0}},
                      {"x", {1, 0.0}},
                      {"y", {1, 2.0}},
                      {"t1", {0, 0.0}},
                      {"t2", {1, 3.75}}});
}

TEST(Dispatch, SynchronousStageInUnderCriticalPath) {
  // Upward ranks: hog 12, wide 8, stage_in 4 (via t1), t1 4, t2 3, y 1.5,
  // x 1. t=0 queue [hog wide stage_in y x]: hog -> h0; stage_in -> h1 and
  // finishes at once; the nested pass sees [wide t1 t2 y x]: t1 -> h1,
  // x -> h0. At 4 hog and t1 end: wide -> h0, t2 -> h1; t2 ends at 5.5 ->
  // y on h1.
  const Result r = run_sync_stage_in(SchedulerPolicy::CriticalPathFirst);
  EXPECT_EQ(r.skipped_stage_files, 2u);
  EXPECT_EQ(r.audit_violations, 0u);
  expect_dispatch(r, {{"hog", {0, 0.0}},
                      {"wide", {0, 4.0}},
                      {"stage_in", {1, 0.0}},
                      {"x", {0, 0.0}},
                      {"y", {1, 5.5}},
                      {"t1", {1, 0.0}},
                      {"t2", {1, 4.0}}});
}

}  // namespace dispatch_tests
