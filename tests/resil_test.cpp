// Unit + property tests for the resilience layer: fault/checkpoint spec
// parsing, the seeded fault sampler, and (below) the integrated
// crash/checkpoint/recovery machinery in exec::Simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/placement.hpp"
#include "platform/presets.hpp"
#include "resil/fault.hpp"
#include "stats/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::resil {
namespace {

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpec, EmptyTextParsesToDisabledSpec) {
  const FaultSpec spec = FaultSpec::parse("");
  EXPECT_FALSE(spec.enabled());
  EXPECT_DOUBLE_EQ(spec.node_mtbf, 0.0);
}

TEST(FaultSpec, ParsesKeyValueList) {
  const FaultSpec spec = FaultSpec::parse(
      "node_mtbf=3600,node_repair=60,node_shape=0.7,seed=42,"
      "bb_mtbf=7200,bb_degrade=0.25,bb_duration=90,"
      "pfs_mtbf=1800,pfs_brownout=0.5,pfs_duration=30,horizon=1e5");
  EXPECT_TRUE(spec.enabled());
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.node_mtbf, 3600.0);
  EXPECT_DOUBLE_EQ(spec.node_repair, 60.0);
  EXPECT_DOUBLE_EQ(spec.node_shape, 0.7);
  EXPECT_DOUBLE_EQ(spec.bb_degrade, 0.25);
  EXPECT_DOUBLE_EQ(spec.pfs_duration, 30.0);
  EXPECT_DOUBLE_EQ(spec.horizon, 1e5);
}

TEST(FaultSpec, WhitespaceAroundEntriesIsTolerated) {
  const FaultSpec spec = FaultSpec::parse(" node_mtbf = 100 , seed = 3 ");
  EXPECT_DOUBLE_EQ(spec.node_mtbf, 100.0);
  EXPECT_EQ(spec.seed, 3u);
}

TEST(FaultSpec, UnknownKeyThrows) {
  EXPECT_THROW(FaultSpec::parse("bogus=1"), util::ConfigError);
}

TEST(FaultSpec, BadNumberThrows) {
  EXPECT_THROW(FaultSpec::parse("node_mtbf=abc"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("node_mtbf"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("seed=7x"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("seed=1.5"), util::ConfigError);
  // NaN and infinity are bad numbers, whatever range a key allows.
  for (const char* spec : {"node_mtbf=nan", "node_mtbf=100,horizon=inf"}) {
    try {
      (void)FaultSpec::parse(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("bad number"), std::string::npos) << e.what();
    }
  }
  try {
    (void)FaultSpec::parse("node_mtbf=100,seed=-1");  // would wrap to 2^64-1
    ADD_FAILURE() << "seed=-1 was accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos) << e.what();
  }
}

TEST(FaultSpec, OutOfRangeValuesThrow) {
  EXPECT_THROW(FaultSpec::parse("node_mtbf=-1"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("node_shape=0"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("bb_degrade=0"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("bb_degrade=1.5"), util::ConfigError);
  EXPECT_THROW(FaultSpec::parse("pfs_brownout=-0.1"), util::ConfigError);
}

TEST(FaultSpec, JsonRoundTrip) {
  const FaultSpec spec =
      FaultSpec::parse("node_mtbf=3600,node_repair=45,seed=9,bb_mtbf=100");
  const FaultSpec back = FaultSpec::from_json(spec.to_json());
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_DOUBLE_EQ(back.node_mtbf, spec.node_mtbf);
  EXPECT_DOUBLE_EQ(back.node_repair, spec.node_repair);
  EXPECT_DOUBLE_EQ(back.bb_mtbf, spec.bb_mtbf);
  EXPECT_DOUBLE_EQ(back.bb_degrade, spec.bb_degrade);
}

// -------------------------------------------------------- CheckpointSpec

TEST(CheckpointSpec, EmptyTextIsDisabled) {
  const CheckpointSpec spec = CheckpointSpec::parse("");
  EXPECT_FALSE(spec.enabled());
  EXPECT_EQ(spec.mode, CheckpointSpec::Mode::None);
}

TEST(CheckpointSpec, IntervalModeWithSizes) {
  const CheckpointSpec spec =
      CheckpointSpec::parse("interval=600,bytes=2G,restart=30,min_compute=10");
  EXPECT_EQ(spec.mode, CheckpointSpec::Mode::Interval);
  EXPECT_DOUBLE_EQ(spec.interval, 600.0);
  EXPECT_DOUBLE_EQ(spec.bytes, 2e9);
  EXPECT_DOUBLE_EQ(spec.restart_latency, 30.0);
  EXPECT_DOUBLE_EQ(spec.min_compute, 10.0);
}

TEST(CheckpointSpec, DalyMode) {
  const CheckpointSpec spec = CheckpointSpec::parse("daly,fraction=0.2");
  EXPECT_EQ(spec.mode, CheckpointSpec::Mode::Daly);
  EXPECT_DOUBLE_EQ(spec.fraction, 0.2);
}

TEST(CheckpointSpec, InvalidValuesThrow) {
  EXPECT_THROW(CheckpointSpec::parse("interval=0"), util::ConfigError);
  EXPECT_THROW(CheckpointSpec::parse("interval=-5"), util::ConfigError);
  EXPECT_THROW(CheckpointSpec::parse("daly,fraction=2"), util::ConfigError);
  EXPECT_THROW(CheckpointSpec::parse("nonsense"), util::ConfigError);
  EXPECT_THROW(CheckpointSpec::parse("daly,wat=1"), util::ConfigError);
}

TEST(CheckpointSpec, JsonRoundTrip) {
  const CheckpointSpec spec = CheckpointSpec::parse("interval=120,bytes=1M,restart=5");
  const CheckpointSpec back = CheckpointSpec::from_json(spec.to_json());
  EXPECT_EQ(back.mode, CheckpointSpec::Mode::Interval);
  EXPECT_DOUBLE_EQ(back.interval, 120.0);
  EXPECT_DOUBLE_EQ(back.bytes, 1e6);
  EXPECT_DOUBLE_EQ(back.restart_latency, 5.0);
}

// ------------------------------------------------------------ FaultModel

TEST(FaultModel, SameSeedSameGapSequence) {
  const FaultSpec spec = FaultSpec::parse("node_mtbf=1000,bb_mtbf=500,seed=7");
  FaultModel a(spec, 4);
  FaultModel b(spec, 4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.next_node_gap(2), b.next_node_gap(2));
    EXPECT_DOUBLE_EQ(a.next_bb_gap(), b.next_bb_gap());
  }
}

TEST(FaultModel, HostStreamsAreIndependent) {
  // Draining host 0's stream must not perturb host 1's draws.
  const FaultSpec spec = FaultSpec::parse("node_mtbf=1000,seed=7");
  FaultModel a(spec, 2);
  FaultModel b(spec, 2);
  for (int i = 0; i < 20; ++i) (void)a.next_node_gap(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.next_node_gap(1), b.next_node_gap(1));
  }
}

TEST(FaultModel, GapsArePositiveAndMeanRoughlyMtbf) {
  const FaultSpec spec = FaultSpec::parse("node_mtbf=100,seed=11");
  FaultModel m(spec, 1);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = m.next_node_gap(0);
    ASSERT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, 100.0, 10.0);  // SE ~ 100/sqrt(4000) ~ 1.6
}

TEST(FaultModel, WeibullShapeChangesDistributionNotDeterminism) {
  const FaultSpec bursty = FaultSpec::parse("node_mtbf=100,node_shape=0.5,seed=3");
  FaultModel a(bursty, 1);
  FaultModel b(bursty, 1);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double g = a.next_node_gap(0);
    EXPECT_DOUBLE_EQ(g, b.next_node_gap(0));
    sum += g;
  }
  // weibull_mean keeps the target mean regardless of shape.
  EXPECT_NEAR(sum / 2000, 100.0, 20.0);
}

// -------------------------------------------------------------- RunStats

TEST(RunStats, ReportSchemaAndWasteDecomposition) {
  RunStats stats;
  stats.node_crashes = 2;
  stats.lost_core_seconds = 10.0;
  stats.checkpoint_core_seconds = 3.0;
  stats.rework_core_seconds = 7.0;
  stats.tasks["t0"].attempts = 2;
  stats.tasks["t0"].kills = 1;
  stats.tasks["quiet"].attempts = 1;  // undisturbed: omitted from the report
  const json::Value doc = stats.to_json();
  EXPECT_EQ(doc.get_string("schema", ""), "bbsim.resil.v1");
  EXPECT_DOUBLE_EQ(doc.get_number("wasted_core_seconds", -1), 20.0);
  EXPECT_TRUE(doc.at("tasks").contains("t0"));
  EXPECT_FALSE(doc.at("tasks").contains("quiet"));
}

// =====================================================================
// Integrated crash / checkpoint / recovery machinery (exec::Simulation).
// =====================================================================

using exec::ExecutionConfig;
using exec::Result;
using exec::Simulation;
using exec::TraceEventKind;
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

/// One 4-core task of `seconds` seconds pure compute, no files.
wf::Workflow compute_only(double seconds) {
  wf::Workflow w;
  w.add_task({"t", "compute", seconds * 4e9, 0.0, 4, {}, {}});
  return w;
}

int count_kind(const Result& r, TraceEventKind kind) {
  int n = 0;
  for (const auto& ev : r.trace) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

TEST(ResilExec, DisabledSpecsLeaveResultByteIdentical) {
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_file({"mid", 400.0});
  w.add_task({"a", "compute", 4e9, 0, 4, {"in"}, {"mid"}});
  w.add_task({"b", "compute", 8e9, 0, 4, {"mid"}, {}});

  ExecutionConfig base;
  base.audit = true;
  base.collect_timeline = true;
  const Result r0 = Simulation(tiny(), w, base).run();

  ExecutionConfig with_specs = base;
  with_specs.faults = FaultSpec::parse("");         // disabled
  with_specs.checkpoint = CheckpointSpec::parse("");  // disabled
  const Result r1 = Simulation(tiny(), w, with_specs).run();

  EXPECT_EQ(r0.resil_stats, nullptr);
  EXPECT_EQ(r1.resil_stats, nullptr);
  EXPECT_EQ(r0.to_json().dump(), r1.to_json().dump());
}

TEST(ResilExec, ArmedButQuiescentFaultProcessKeepsScheduleExact) {
  // A horizon shorter than the first sampled gap means no fault is ever
  // scheduled: the resil layer is live, yet the schedule must not move.
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_task({"t", "compute", 4e9, 0, 4, {"in"}, {}});

  ExecutionConfig base;
  base.audit = true;
  const Result r0 = Simulation(tiny(), w, base).run();

  ExecutionConfig armed = base;
  armed.faults = FaultSpec::parse("node_mtbf=1000,horizon=1e-9,seed=5");
  const Result r1 = Simulation(tiny(), w, armed).run();

  ASSERT_NE(r1.resil_stats, nullptr);
  EXPECT_EQ(r1.resil_stats->node_crashes, 0);
  EXPECT_DOUBLE_EQ(r1.resil_stats->wasted_core_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r0.makespan, r1.makespan);
  ASSERT_EQ(r0.tasks.size(), r1.tasks.size());
  for (const auto& [name, rec] : r0.tasks) {
    const auto& rec1 = r1.tasks.at(name);
    EXPECT_DOUBLE_EQ(rec.t_start, rec1.t_start);
    EXPECT_DOUBLE_EQ(rec.t_end, rec1.t_end);
    EXPECT_DOUBLE_EQ(rec.bytes_read, rec1.bytes_read);
  }
  EXPECT_EQ(r0.audit_violations, 0u);
  EXPECT_EQ(r1.audit_violations, 0u);
  // The report section exists and carries the schema marker.
  EXPECT_EQ(r1.to_json().at("resil").get_string("schema", ""), "bbsim.resil.v1");
}

TEST(ResilExec, CrashMidComputeRestartsFromZero) {
  // 100 s pure compute on one host. Find a seed whose first crash lands
  // mid-task and whose second crash lands after the re-run finishes, then
  // hand-compute the whole schedule:
  //   crash at g0, repair at g0+30, re-run 100 s -> makespan g0+130,
  //   lost work = 4 cores * g0.
  double g0 = 0.0;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 200 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > 10.0 && a < 90.0 && b > 110.0) {
      seed = s;
      g0 = a;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed with a usable crash schedule in 200 tries";

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" +
                                std::to_string(seed));
  const Result r = Simulation(tiny(), compute_only(100.0), cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_EQ(st.node_crashes, 1);
  EXPECT_EQ(st.node_repairs, 1);
  EXPECT_EQ(st.tasks_killed, 1);
  EXPECT_EQ(st.restarts, 1);
  EXPECT_EQ(st.tasks.at("t").attempts, 2);
  EXPECT_EQ(st.tasks.at("t").kills, 1);
  EXPECT_NEAR(st.lost_core_seconds, 4.0 * g0, 1e-6);
  EXPECT_NEAR(r.makespan, g0 + 30.0 + 100.0, 1e-9);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(count_kind(r, TraceEventKind::NodeCrash), 1);
  EXPECT_EQ(count_kind(r, TraceEventKind::TaskKilled), 1);
  EXPECT_EQ(count_kind(r, TraceEventKind::TaskRestart), 1);
}

TEST(ResilExec, IntervalCheckpointOverheadExact) {
  // 100 s compute, checkpoint every 10 s, 800 B images to the BB.
  // Each image writes at min(link 800, disk 950) = 800 B/s -> 1 s stall;
  // the final 10 s segment does not checkpoint (remaining == interval),
  // so 9 checkpoints and makespan 100 + 9 = 109 s. Each drain BB -> PFS
  // runs at the PFS disk's 100 B/s -> 8 s, asynchronously inside the next
  // 10 s segment, so all 9 images become durable.
  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.checkpoint = CheckpointSpec::parse("interval=10,bytes=800");
  const Result r = Simulation(tiny(), compute_only(100.0), cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_EQ(st.checkpoints_taken, 9);
  EXPECT_NEAR(st.checkpoint_bytes_written, 9 * 800.0, 1e-6);
  EXPECT_NEAR(st.checkpoint_bytes_drained, 9 * 800.0, 1e-6);
  // Task completion discards the final image's BB and PFS copies.
  EXPECT_NEAR(st.checkpoint_bytes_discarded, 1600.0, 1e-6);
  EXPECT_NEAR(st.checkpoint_core_seconds, 4.0 * 9.0, 1e-6);
  EXPECT_NEAR(st.wasted_core_seconds(), 36.0, 1e-6);
  EXPECT_NEAR(r.makespan, 109.0, 1e-9);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(count_kind(r, TraceEventKind::Checkpoint), 9);
  EXPECT_EQ(count_kind(r, TraceEventKind::CheckpointDrained), 9);
}

TEST(ResilExec, DalyIntervalFollowsFormula) {
  // Young/Daly: tau = sqrt(2 * C * MTBF) with C = bytes / BB disk write bw.
  // The horizon keeps the armed fault process from ever firing, so the
  // checkpoint cadence is the only resil effect.
  const double bytes = 800.0;
  const double mtbf = 50.0;
  const double tau = std::sqrt(2.0 * (bytes / 950.0) * mtbf);
  int expected = 0;
  double remaining = 100.0;
  while (remaining > tau) {
    remaining -= tau;
    ++expected;
  }
  ASSERT_GT(expected, 0);

  ExecutionConfig cfg;
  cfg.faults = FaultSpec::parse("node_mtbf=50,horizon=1e-9,seed=2");
  cfg.checkpoint = CheckpointSpec::parse("daly,bytes=800");
  const Result r = Simulation(tiny(), compute_only(100.0), cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  EXPECT_EQ(r.resil_stats->checkpoints_taken, expected);
  // Each 800 B image stalls compute for 1 s on the 800 B/s BB path.
  EXPECT_NEAR(r.makespan, 100.0 + expected * 1.0, 1e-6);
}

TEST(ResilExec, CrashWithDrainedCheckpointResumes) {
  // Same crash scenario as CrashMidComputeRestartsFromZero, but with
  // 10 s interval checkpoints: once the first image drains (t = 19),
  // a crash can only lose work past the last durable checkpoint.
  double g0 = 0.0;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 400 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > 30.0 && a < 85.0 && b > 200.0) {
      seed = s;
      g0 = a;
    }
  }
  ASSERT_NE(seed, 0u);

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" +
                                std::to_string(seed));
  cfg.checkpoint = CheckpointSpec::parse("interval=10,bytes=800,restart=2");
  const Result r = Simulation(tiny(), compute_only(100.0), cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_EQ(st.tasks.at("t").kills, 1);
  EXPECT_EQ(st.tasks.at("t").attempts, 2);
  EXPECT_GE(st.checkpoint_bytes_drained, 800.0);
  // At g0 > 30 at least the first image (10 s of progress) was durable, so
  // strictly less than the whole attempt is lost.
  EXPECT_LE(st.lost_core_seconds, 4.0 * (g0 - 10.0) + 1e-6);
  EXPECT_GT(st.lost_core_seconds, 0.0);
  // The restarted attempt resumes from the checkpoint: at most 90 s of
  // compute plus at most 9 more 1 s checkpoint stalls.
  const auto& rec = r.tasks.at("t");
  EXPECT_LE(rec.t_compute_done - rec.t_reads_done, 99.0 + 1e-6);
  EXPECT_EQ(r.audit_violations, 0u);
}

TEST(ResilExec, NodeLocalCrashRollsBackDoneProducer) {
  // p writes a BB-only intermediate; c1 consumes it and finishes; c2 is
  // mid-read when the node dies. The node-local replica dies with the
  // node, so p (already done) must roll back and re-produce it -- and the
  // attempt-aware precedence audit must accept c1 having started before
  // p's *re-run* finished.
  wf::Workflow w;
  w.add_file({"f", 4000.0});
  w.add_task({"p", "compute", 4e10, 0, 4, {}, {"f"}});
  w.add_task({"c1", "compute", 4e9, 0, 4, {"f"}, {}});
  w.add_task({"c2", "compute", 2e11, 0, 4, {"f"}, {}});

  ExecutionConfig base;
  base.audit = true;
  const Result twin = Simulation(tiny(StorageKind::NodeLocalBB), w, base).run();
  ASSERT_EQ(twin.audit_violations, 0u);
  const double rd_start = twin.tasks.at("c2").t_start;
  const double rd_end = twin.tasks.at("c2").t_reads_done;
  ASSERT_GT(rd_end, rd_start + 1.0);

  double g0 = 0.0;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    // The re-run needs ~100 s after the repair; b > 110 keeps the second
    // crash clear of it.
    if (a > rd_start + 0.5 && a < rd_end - 0.5 && b > 110.0) {
      seed = s;
      g0 = a;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed crashes inside c2's read window";

  ExecutionConfig cfg = base;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" +
                                std::to_string(seed));
  const Result r = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_EQ(st.rollbacks, 1);
  EXPECT_GE(st.files_invalidated, 1);
  EXPECT_EQ(st.tasks.at("p").attempts, 2);
  EXPECT_EQ(st.tasks.at("c1").attempts, 1);  // its result survived
  EXPECT_GE(st.tasks.at("c2").kills, 1);
  // p's first run re-executes: 10 s of 4-core compute becomes rework.
  EXPECT_NEAR(st.rework_core_seconds, 40.0, 1e-6);
  EXPECT_GT(r.makespan, twin.makespan);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GE(count_kind(r, TraceEventKind::Rollback), 1);
  (void)g0;
}

TEST(ResilExec, NodeCrashKillsAndRequeuesInNameOrder) {
  // "b" is created before "a"; both 2-core tasks run on the one host when
  // it crashes. The kill loop walks tasks by name, so under FCFS "a" is
  // killed, requeued and restarted first.
  wf::Workflow w;
  w.add_task({"b", "compute", 100.0 * 2e9, 0.0, 2, {}, {}});
  w.add_task({"a", "compute", 100.0 * 2e9, 0.0, 2, {}, {}});
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 200 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > 10.0 && a < 90.0 && b > 110.0) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed with a usable crash schedule in 200 tries";

  ExecutionConfig cfg;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" +
                                std::to_string(seed));
  const Result r = Simulation(tiny(), w, cfg).run();
  ASSERT_NE(r.resil_stats, nullptr);
  ASSERT_EQ(r.resil_stats->node_crashes, 1);

  std::vector<std::string> killed;
  std::vector<std::string> ready;
  std::vector<std::string> started;
  for (const auto& ev : r.trace) {
    if (ev.kind == TraceEventKind::TaskKilled) killed.push_back(ev.task);
    if (ev.kind == TraceEventKind::TaskReady) ready.push_back(ev.task);
    if (ev.kind == TraceEventKind::TaskStart) started.push_back(ev.task);
  }
  EXPECT_EQ(killed, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ready, (std::vector<std::string>{"b", "a", "a", "b"}));
  EXPECT_EQ(started, (std::vector<std::string>{"b", "a", "a", "b"}));
}

TEST(ResilExec, RollbackPullsQueuedChildOutOfTheReadyQueue) {
  // p writes a BB-only intermediate that c1 and c2 both read; both need
  // the whole host, so c1 runs while c2 waits in the ready queue. The
  // node dies during c1's read: c1 is killed and requeued, the replica is
  // lost, and rolling p back must pull both children out of the queue --
  // otherwise c2 would start reading a file no replica holds. Both may
  // start only after p's re-run has re-produced the file.
  wf::Workflow w;
  w.add_file({"f", 4000.0});
  w.add_task({"p", "compute", 4e10, 0, 4, {}, {"f"}});
  w.add_task({"c1", "compute", 4e9, 0, 4, {"f"}, {}});
  w.add_task({"c2", "compute", 4e9, 0, 4, {"f"}, {}});

  ExecutionConfig base;
  base.audit = true;
  const Result twin = Simulation(tiny(StorageKind::NodeLocalBB), w, base).run();
  ASSERT_EQ(twin.audit_violations, 0u);
  const double rd_start = twin.tasks.at("c1").t_start;
  const double rd_end = twin.tasks.at("c1").t_reads_done;
  ASSERT_GT(rd_end, rd_start + 1.0);
  ASSERT_GE(twin.tasks.at("c2").t_start, twin.tasks.at("c1").t_end);

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > rd_start + 0.5 && a < rd_end - 0.5 && b > 110.0) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed crashes inside c1's read window";

  ExecutionConfig cfg = base;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" +
                                std::to_string(seed));
  const Result r = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_EQ(st.rollbacks, 1);
  EXPECT_EQ(st.tasks.at("p").attempts, 2);
  EXPECT_EQ(st.tasks.at("c1").kills, 1);
  EXPECT_EQ(st.tasks.at("c2").kills, 0);  // never started before the crash
  EXPECT_EQ(r.audit_violations, 0u);
  const exec::TaskRecord& p = r.tasks.at("p");
  const exec::TaskRecord& c2 = r.tasks.at("c2");
  EXPECT_GE(r.tasks.at("c1").t_start, p.t_end);
  EXPECT_GE(c2.t_ready, p.t_end);  // re-readied by p's second completion
  EXPECT_GE(c2.t_start, p.t_end);
  // c2 became ready twice (after each run of p) but started exactly once.
  int c2_ready = 0;
  int c2_start = 0;
  for (const auto& ev : r.trace) {
    if (ev.task != "c2") continue;
    if (ev.kind == TraceEventKind::TaskReady) ++c2_ready;
    if (ev.kind == TraceEventKind::TaskStart) ++c2_start;
  }
  EXPECT_EQ(c2_ready, 2);
  EXPECT_EQ(c2_start, 1);
}

TEST(ResilExec, RollbackKillsAStagingChildWithItsCopies) {
  // p writes a BB-only intermediate f; the stage-in task s runs after p (a
  // control dependency) and copies the input i; c reads both. The node
  // dies while s is copying: f is lost, p rolls back, and s -- a child not
  // yet done -- is killed until p has re-run. Its copy in flight must die
  // with it, so s finishes exactly once and the BB ledger balances.
  wf::Workflow w;
  w.add_file({"f", 400.0});
  w.add_file({"i", 8000.0});
  w.add_task({"p", "compute", 4e10, 0, 4, {}, {"f"}});
  w.add_task({"s", "stage_in", 0.0, 0, 1, {}, {}});
  w.add_task({"c", "compute", 4e9, 0, 4, {"f", "i"}, {}});
  w.add_control_dep("p", "s");
  w.add_control_dep("s", "c");

  ExecutionConfig base;
  base.audit = true;
  const Result twin = Simulation(tiny(StorageKind::NodeLocalBB), w, base).run();
  ASSERT_EQ(twin.audit_violations, 0u);
  const double copy_start = twin.tasks.at("s").t_start;
  const double copy_end = twin.tasks.at("s").t_end;
  ASSERT_GT(copy_end, copy_start + 10.0);

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > copy_start + 1.0 && a < copy_end - 1.0 && b > 300.0) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed crashes inside the copy of i";

  ExecutionConfig cfg = base;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=10,seed=" + std::to_string(seed));
  const Result r = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();
  ASSERT_NE(r.resil_stats, nullptr);
  EXPECT_EQ(r.resil_stats->rollbacks, 1);
  EXPECT_EQ(r.resil_stats->tasks.at("s").kills, 1);
  int s_starts = 0;
  int s_ends = 0;
  for (const auto& ev : r.trace) {
    if (ev.task != "s") continue;
    if (ev.kind == TraceEventKind::TaskStart) ++s_starts;
    if (ev.kind == TraceEventKind::TaskEnd) ++s_ends;
  }
  EXPECT_EQ(s_starts, 2);
  EXPECT_EQ(s_ends, 1);
  EXPECT_GE(r.tasks.at("s").t_start, r.tasks.at("p").t_end);
  EXPECT_EQ(r.audit_violations, 0u);
}

TEST(ResilExec, LostReplicasAreWalkedInNameOrder) {
  // pb and pa each write a BB-only output that c needs; c also waits for
  // the long task slow. The outputs are declared b_out first, so by
  // creation (and by file id) b_out comes before a_out. The node dies
  // after both producers are done and while slow still runs: the crash
  // walk visits the lost replicas by name, so pa is rolled back, queued
  // and restarted before pb.
  wf::Workflow w;
  w.add_file({"b_out", 1000.0});
  w.add_file({"a_out", 1000.0});
  w.add_file({"s_out", 1000.0});
  w.add_task({"pb", "compute", 1e10, 0, 1, {}, {"b_out"}});
  w.add_task({"pa", "compute", 1e10, 0, 1, {}, {"a_out"}});
  w.add_task({"slow", "compute", 2e11, 0, 2, {}, {"s_out"}});
  w.add_task({"c", "compute", 1e9, 0, 1, {"a_out", "b_out", "s_out"}, {}});

  ExecutionConfig base;
  base.audit = true;
  const Result twin = Simulation(tiny(StorageKind::NodeLocalBB), w, base).run();
  ASSERT_EQ(twin.audit_violations, 0u);
  const double producers_done =
      std::max(twin.tasks.at("pa").t_end, twin.tasks.at("pb").t_end);
  const double slow_end = twin.tasks.at("slow").t_end;
  ASSERT_GT(slow_end, producers_done + 20.0);

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > producers_done + 5.0 && a < slow_end - 5.0 && b > 300.0) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed crashes between the producers' ends and slow's";

  ExecutionConfig cfg = base;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" + std::to_string(seed));
  const Result r = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();
  ASSERT_NE(r.resil_stats, nullptr);
  ASSERT_EQ(r.resil_stats->node_crashes, 1);
  EXPECT_EQ(r.resil_stats->files_invalidated, 2);
  EXPECT_EQ(r.audit_violations, 0u);

  std::vector<std::string> rolled_back;
  std::vector<std::string> started;
  for (const auto& ev : r.trace) {
    if (ev.kind == TraceEventKind::Rollback) rolled_back.push_back(ev.task);
    if (ev.kind == TraceEventKind::TaskStart) started.push_back(ev.task);
  }
  EXPECT_EQ(rolled_back, (std::vector<std::string>{"pa", "pb"}));
  EXPECT_EQ(started,
            (std::vector<std::string>{"pb", "pa", "slow", "slow", "pa", "pb", "c"}));
  EXPECT_NEAR(r.makespan, 221.659164, 1e-6);
}

TEST(ResilExec, LostCheckpointImagesInterleaveWithFilesByName) {
  // The crashed node holds a checkpoint image next to two BB-only outputs:
  // a_out (1000 B) and z_out (2000 B) of the Done producers pa and pz, and
  // the 500 B image "m.ckpt" of the running task m. By key the image comes
  // after every workflow file (and z_out, declared first, before a_out);
  // by name it sits between a_out and z_out. Each erase samples the BB's
  // occupancy, so the samples at the crash instant record the walk order.
  wf::Workflow w;
  w.add_file({"z_out", 2000.0});
  w.add_file({"a_out", 1000.0});
  w.add_file({"m_out", 100.0});
  w.add_task({"pz", "compute", 1e10, 0, 1, {}, {"z_out"}});
  w.add_task({"pa", "compute", 1e10, 0, 1, {}, {"a_out"}});
  w.add_task({"m", "compute", 4e11, 0, 2, {}, {"m_out"}});
  w.add_task({"c", "compute", 1e9, 0, 1, {"a_out", "m_out", "z_out"}, {}});

  ExecutionConfig base;
  base.audit = true;
  base.collect_metrics = true;
  // Only m computes long enough to checkpoint.
  base.checkpoint = CheckpointSpec::parse("interval=10,bytes=500,min_compute=50");
  const Result twin = Simulation(tiny(StorageKind::NodeLocalBB), w, base).run();
  ASSERT_EQ(twin.audit_violations, 0u);
  double first_image = 0.0;
  for (const auto& ev : twin.trace) {
    if (ev.kind == TraceEventKind::CheckpointDrained && first_image == 0.0) {
      ASSERT_EQ(ev.task, "m");
      first_image = ev.time;
    }
  }
  ASSERT_GT(first_image, 0.0);
  const double held_from = std::max(
      {first_image, twin.tasks.at("pa").t_end, twin.tasks.at("pz").t_end});
  const double m_end = twin.tasks.at("m").t_end;
  ASSERT_GT(m_end, held_from + 20.0);

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("node_mtbf=60,seed=" + std::to_string(s)), 1);
    const double a = probe.next_node_gap(0);
    const double b = probe.next_node_gap(0);
    if (a > held_from + 5.0 && a < m_end - 5.0 && b > 400.0) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed crashes while the node holds all three replicas";

  ExecutionConfig cfg = base;
  cfg.faults = FaultSpec::parse("node_mtbf=60,node_repair=30,seed=" + std::to_string(seed));
  Simulation sim(tiny(StorageKind::NodeLocalBB), w, cfg);
  const Result r = sim.run();
  ASSERT_NE(r.resil_stats, nullptr);
  ASSERT_EQ(r.resil_stats->node_crashes, 1);
  EXPECT_EQ(r.resil_stats->files_invalidated, 3);
  EXPECT_EQ(r.audit_violations, 0u);

  double crash = -1.0;
  std::vector<std::string> rolled_back;
  for (const auto& ev : r.trace) {
    if (ev.kind == TraceEventKind::NodeCrash) crash = ev.time;
    if (ev.kind == TraceEventKind::Rollback) rolled_back.push_back(ev.task);
  }
  ASSERT_GE(crash, 0.0);
  EXPECT_EQ(rolled_back, (std::vector<std::string>{"pa", "pz"}));
  const stats::TimeSeries* bb = sim.metrics()->find_series("storage.bb.occupancy_bytes");
  ASSERT_NE(bb, nullptr);
  std::vector<double> at_crash;
  for (const stats::Sample& s : bb->samples()) {
    if (s.time == crash) at_crash.push_back(s.value);
  }
  // a_out, then m.ckpt, then z_out.
  EXPECT_EQ(at_crash, (std::vector<double>{2500.0, 2000.0, 0.0}));
}

TEST(ResilExec, BbDegradationWindowSlowsStagedRead) {
  // Input staged to the BB reads 8000 B at 800 B/s. A 0.5x degradation at
  // t = g rescales the remaining bytes to 400 B/s:
  //   read ends at g + (8000 - 800 g) / 400 = 20 - g, compute 1 s,
  //   makespan 21 - g. The window clears after the run without touching
  //   the records.
  wf::Workflow w;
  w.add_file({"in", 8000.0});
  w.add_task({"t", "compute", 4e9, 0, 4, {"in"}, {}});

  double g = 0.0;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 500 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("bb_mtbf=3,seed=" + std::to_string(s)), 1);
    const double a = probe.next_bb_gap();
    if (a > 1.0 && a < 8.0) {
      seed = s;
      g = a;
    }
  }
  ASSERT_NE(seed, 0u);

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.stage_in_mode = exec::StageInMode::Instant;
  cfg.faults = FaultSpec::parse("bb_mtbf=3,bb_degrade=0.5,bb_duration=60,seed=" +
                                std::to_string(seed));
  const Result r = Simulation(tiny(), w, cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  EXPECT_EQ(r.resil_stats->bb_degradations, 1);
  EXPECT_NEAR(r.makespan, 21.0 - g, 1e-6);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(count_kind(r, TraceEventKind::BbDegraded), 1);
  EXPECT_EQ(count_kind(r, TraceEventKind::FaultCleared), 1);
}

TEST(ResilExec, PfsBrownoutSlowsRead) {
  // All-PFS run: 1000 B read at 100 B/s. A 0.5x brownout at t = g leaves
  // (1000 - 100 g) bytes at 50 B/s: read ends at 20 - g, makespan 21 - g.
  wf::Workflow w;
  w.add_file({"in", 1000.0});
  w.add_task({"t", "compute", 4e9, 0, 4, {"in"}, {}});

  double g = 0.0;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 500 && seed == 0; ++s) {
    FaultModel probe(FaultSpec::parse("pfs_mtbf=3,seed=" + std::to_string(s)), 1);
    const double a = probe.next_pfs_gap();
    if (a > 1.0 && a < 8.0) {
      seed = s;
      g = a;
    }
  }
  ASSERT_NE(seed, 0u);

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.placement = exec::all_pfs_policy();
  cfg.faults = FaultSpec::parse(
      "pfs_mtbf=3,pfs_brownout=0.5,pfs_duration=60,seed=" + std::to_string(seed));
  const Result r = Simulation(tiny(), w, cfg).run();

  ASSERT_NE(r.resil_stats, nullptr);
  EXPECT_EQ(r.resil_stats->pfs_brownouts, 1);
  EXPECT_NEAR(r.makespan, 21.0 - g, 1e-6);
  EXPECT_EQ(r.audit_violations, 0u);
}

TEST(ResilExec, FaultyRunIsReproducibleEndToEnd) {
  wf::Workflow w;
  w.add_file({"f", 4000.0});
  w.add_task({"p", "compute", 4e10, 0, 4, {}, {"f"}});
  w.add_task({"c1", "compute", 4e9, 0, 4, {"f"}, {}});
  w.add_task({"c2", "compute", 2e11, 0, 4, {"f"}, {}});

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.faults = FaultSpec::parse("node_mtbf=40,node_repair=15,seed=11");
  cfg.checkpoint = CheckpointSpec::parse("interval=8,fraction=0.2,restart=1");

  const Result a = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();
  const Result b = Simulation(tiny(StorageKind::NodeLocalBB), w, cfg).run();
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  ASSERT_NE(a.resil_stats, nullptr);
  ASSERT_NE(b.resil_stats, nullptr);
  EXPECT_EQ(a.resil_stats->to_json().dump(), b.resil_stats->to_json().dump());
  EXPECT_EQ(a.audit_violations, 0u);
}

// =====================================================================
// Property sweep: 200 seeded fault/recovery scenarios.
// =====================================================================

/// Small random DAGs sized for the tiny platform: transfers of a few
/// seconds, compute of a few seconds, so fault windows interleave with
/// every phase.
wf::RandomDagConfig small_dag_config() {
  wf::RandomDagConfig cfg;
  cfg.levels = 3;
  cfg.min_width = 2;
  cfg.max_width = 3;
  cfg.min_file_size = 200.0;
  cfg.max_file_size = 2000.0;
  cfg.min_seq_seconds = 1.0;
  cfg.max_seq_seconds = 10.0;
  cfg.reference_core_speed = 1e9;
  cfg.max_requested_cores = 4;
  return cfg;
}

// --- empty fault process => bitwise-identical run, zero waste ----------

class ResilPropertyIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ResilPropertyIdentity, EmptyFaultProcessChangesNothing) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  const wf::Workflow w = wf::make_random_layered(small_dag_config(), rng);

  ExecutionConfig base;
  base.audit = true;
  const Result r0 = Simulation(tiny(StorageKind::SharedBB, 2), w, base).run();

  // Disabled specs: the whole serialized result must match byte for byte.
  ExecutionConfig off = base;
  off.faults = FaultSpec::parse("");
  off.checkpoint = CheckpointSpec::parse("");
  const Result r1 = Simulation(tiny(StorageKind::SharedBB, 2), w, off).run();
  EXPECT_EQ(r0.to_json().dump(), r1.to_json().dump());
  EXPECT_EQ(r1.resil_stats, nullptr);

  // Armed-but-quiescent process (horizon below the first gap): same
  // makespan and schedule, zero waste.
  ExecutionConfig armed = base;
  armed.faults = FaultSpec::parse("node_mtbf=500,horizon=1e-9,seed=" +
                                  std::to_string(GetParam() + 1));
  const Result r2 = Simulation(tiny(StorageKind::SharedBB, 2), w, armed).run();
  ASSERT_NE(r2.resil_stats, nullptr);
  EXPECT_DOUBLE_EQ(r2.resil_stats->wasted_core_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r0.makespan, r2.makespan);
  for (const auto& [name, rec] : r0.tasks) {
    EXPECT_DOUBLE_EQ(rec.t_start, r2.tasks.at(name).t_start);
    EXPECT_DOUBLE_EQ(rec.t_end, r2.tasks.at(name).t_end);
  }
  EXPECT_EQ(r0.audit_violations, 0u);
  EXPECT_EQ(r2.audit_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilPropertyIdentity, ::testing::Range(0, 50));

// --- random faults + recovery keep every ledger clean ------------------

class ResilPropertyRecovery : public ::testing::TestWithParam<int> {};

TEST_P(ResilPropertyRecovery, AuditCleanWithConsistentAccounting) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) + 7000);
  const auto shape = static_cast<wf::DagShape>(seed % 5);
  const wf::Workflow w = wf::make_shaped_dag(shape, small_dag_config(), rng);

  // Random fault cocktail. The horizon guarantees the run eventually sees
  // a fault-free tail and terminates.
  std::string faults = "seed=" + std::to_string(seed + 1) +
                       ",node_mtbf=" + std::to_string(rng.uniform(50.0, 300.0)) +
                       ",node_repair=" + std::to_string(rng.uniform(5.0, 30.0)) +
                       ",horizon=" + std::to_string(rng.uniform(100.0, 400.0));
  if (rng.chance(0.5)) {
    faults += ",bb_mtbf=" + std::to_string(rng.uniform(50.0, 400.0)) +
              ",bb_degrade=" + std::to_string(rng.uniform(0.2, 0.9)) +
              ",bb_duration=" + std::to_string(rng.uniform(5.0, 60.0));
  }
  if (rng.chance(0.5)) {
    faults += ",pfs_mtbf=" + std::to_string(rng.uniform(50.0, 400.0)) +
              ",pfs_brownout=" + std::to_string(rng.uniform(0.2, 0.9)) +
              ",pfs_duration=" + std::to_string(rng.uniform(5.0, 60.0));
  }

  ExecutionConfig cfg;
  cfg.audit = true;
  cfg.faults = FaultSpec::parse(faults);
  switch (seed % 3) {
    case 0:
      break;  // no checkpointing: recovery restarts from zero
    case 1:
      cfg.checkpoint = CheckpointSpec::parse(
          "interval=" + std::to_string(rng.uniform(2.0, 20.0)) +
          ",fraction=0.2,restart=" + std::to_string(rng.uniform(0.0, 3.0)));
      break;
    default:
      cfg.checkpoint = CheckpointSpec::parse(
          "daly,bytes=" + std::to_string(rng.uniform(100.0, 4000.0)));
      break;
  }

  const auto kind = (seed % 2 == 0) ? StorageKind::SharedBB : StorageKind::NodeLocalBB;
  const Result r = Simulation(tiny(kind, 2), w, cfg).run();

  // Every task completed and the full invariant audit is clean -- schedule
  // legality, attempt-aware precedence, core budgets, byte conservation.
  EXPECT_EQ(r.tasks.size(), w.task_count());
  EXPECT_EQ(r.audit_violations, 0u) << "faults: " << faults;

  ASSERT_NE(r.resil_stats, nullptr);
  const RunStats& st = *r.resil_stats;
  EXPECT_GE(st.lost_core_seconds, 0.0);
  EXPECT_GE(st.checkpoint_core_seconds, 0.0);
  EXPECT_GE(st.rework_core_seconds, 0.0);
  EXPECT_NEAR(st.wasted_core_seconds(),
              st.lost_core_seconds + st.checkpoint_core_seconds +
                  st.rework_core_seconds,
              1e-9);
  EXPECT_LE(st.checkpoint_bytes_drained, st.checkpoint_bytes_written + 1e-6);
  EXPECT_GE(st.checkpoint_bytes_discarded, 0.0);
  EXPECT_EQ(st.tasks_killed, count_kind(r, TraceEventKind::TaskKilled));
  int attempts_beyond_first = 0;
  for (const auto& [name, tr] : st.tasks) {
    EXPECT_GE(tr.attempts, 1) << name;
    EXPECT_GE(tr.kills, 0) << name;
    attempts_beyond_first += tr.attempts - 1;
  }
  EXPECT_EQ(st.restarts, attempts_beyond_first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilPropertyRecovery, ::testing::Range(0, 100));

// --- fault-rate ladder: more faults never help -------------------------

TEST(ResilProperty, FaultRateLadderNeverShortensChains) {
  // Chains on a single host execute strictly serially, so every crash can
  // only delay completion: each faulty makespan dominates the fault-free
  // one, and the aggregate over 50 seeds grows with the fault rate.
  const double rates_mtbf[] = {0.0, 200.0, 50.0, 12.5};
  double total[4] = {0.0, 0.0, 0.0, 0.0};
  for (int seed = 0; seed < 50; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) + 4000);
    const wf::Workflow w =
        wf::make_shaped_dag(wf::DagShape::Chain, small_dag_config(), rng);
    double baseline = 0.0;
    for (int rung = 0; rung < 4; ++rung) {
      ExecutionConfig cfg;
      if (rates_mtbf[rung] > 0.0) {
        cfg.faults = FaultSpec::parse(
            "node_mtbf=" + std::to_string(rates_mtbf[rung]) +
            ",node_repair=10,horizon=300,seed=" + std::to_string(seed + 1));
      }
      const Result r = Simulation(tiny(), w, cfg).run();
      total[rung] += r.makespan;
      if (rung == 0) {
        baseline = r.makespan;
      } else {
        EXPECT_GE(r.makespan, baseline - 1e-9)
            << "seed " << seed << " rung " << rung;
      }
    }
  }
  EXPECT_GE(total[1], total[0] - 1e-9);
  EXPECT_GE(total[2], total[1] - 1e-9);
  EXPECT_GE(total[3], total[2] - 1e-9);
}

// =====================================================================
// The task lifecycle, pinned: whole results of runs that drive every
// transition of exec::Simulation's per-task state.
// =====================================================================

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of the whole serialized result: records, trace, storage
/// counters, metrics, audit, resil and critpath sections.
std::string result_hash(const Result& r) {
  return util::format("0x%016llx",
                      static_cast<unsigned long long>(fnv1a(r.to_json().dump())));
}

ExecutionConfig lifecycle_config() {
  ExecutionConfig cfg;
  cfg.collect_metrics = true;
  cfg.audit = true;
  cfg.critpath = true;
  return cfg;
}

TEST(ResilExec, LifecycleResultsArePinned) {
  // (1) Kills in every phase. A random 7-task DAG on a 2-node node-local
  // BB with 2 s checkpoints and a 1.5 s restart delay. Its 9 kills land
  // during reads (t_l00_02 at t = 29.3, t_l02_01 at 130.4, t_l01_00 at
  // 135.9, t_l00_02 at 140.0), a restart delay (t_l00_02 at 33.9,
  // t_l01_00 at 114.1), a checkpoint write (t_l00_01 at 53.6), a compute
  // segment (t_l01_00 at 109.9) and writes (t_l02_00 at 130.3); 4 lost
  // node-local replicas roll finished producers back.
  util::Rng rng(100);
  const wf::Workflow dag = wf::make_random_layered(small_dag_config(), rng);
  ExecutionConfig phases = lifecycle_config();
  phases.faults = FaultSpec::parse("node_mtbf=25,node_repair=4,horizon=150,seed=14");
  phases.checkpoint = CheckpointSpec::parse("interval=2,fraction=0.5,restart=1.5");
  const Result r1 = Simulation(tiny(StorageKind::NodeLocalBB, 2), dag, phases).run();
  ASSERT_NE(r1.resil_stats, nullptr);
  EXPECT_EQ(r1.resil_stats->tasks_killed, 9);
  EXPECT_EQ(r1.resil_stats->rollbacks, 4);

  // (2) A rollback that kills a running child on another host. p (host 1)
  // writes f1 to its node-local BB for c1 and f2 to the PFS for c2, which
  // the pinner put on host 0. Kills: p during its writes (t = 11.1), then
  // at t = 50.4 c1 mid-compute with host 1, and c2 mid-compute on host 0
  // when losing f1 rolls p back (c2 waits for p's re-run, not requeued).
  wf::Workflow fan;
  fan.add_file({"f1", 4000.0});
  fan.add_file({"f2", 400.0});
  fan.add_task({"p", "compute", 4e10, 0, 4, {}, {"f1", "f2"}});
  fan.add_task({"c1", "compute", 4e10, 0, 4, {"f1"}, {}});
  fan.add_task({"c2", "compute", 2e11, 0, 4, {"f2"}, {}});
  ExecutionConfig rollback = lifecycle_config();
  rollback.faults = FaultSpec::parse("node_mtbf=60,node_repair=10,seed=16");
  const Result r2 = Simulation(tiny(StorageKind::NodeLocalBB, 2), fan, rollback).run();
  ASSERT_NE(r2.resil_stats, nullptr);
  EXPECT_EQ(r2.resil_stats->tasks_killed, 3);
  EXPECT_EQ(r2.resil_stats->rollbacks, 1);

  // (3) A stage-in task copies six files three at a time into a 2000 B
  // BB: the 900 B and the 150 B file do not fit when their turn comes and
  // stay on the PFS, while the 100 B file between them is copied.
  PlatformSpec squeezed = tiny(StorageKind::SharedBB, 2);
  squeezed.storage[1].disk.capacity = 2000.0;
  squeezed.storage[1].stage_latency = 0.5;
  wf::Workflow staged;
  const double sizes[] = {600.0, 600.0, 600.0, 900.0, 100.0, 150.0};
  std::vector<std::string> in_names;
  for (std::size_t i = 0; i < 6; ++i) {
    in_names.push_back("i" + std::to_string(i));
    staged.add_file({in_names.back(), sizes[i]});
  }
  staged.add_file({"o1", 300.0});
  staged.add_file({"o2", 300.0});
  staged.add_task({"stage_in", "stage_in", 0.0, 0, 1, {}, {}});
  staged.add_task({"t1", "compute", 4e9, 0, 2, {"i0", "i1", "i2"}, {"o1"}});
  staged.add_task({"t2", "compute", 2e9, 0, 2, {"i3", "i4", "i5"}, {"o2"}});
  staged.add_control_dep("stage_in", "t1");
  staged.add_control_dep("stage_in", "t2");
  ExecutionConfig stage_in = lifecycle_config();
  stage_in.stage_in_width = 3;
  const Result r3 = Simulation(squeezed, staged, stage_in).run();
  EXPECT_EQ(r3.skipped_stage_files, 2u);

  // (4) The implicit stage-in (width 2) fills a 2000 B BB, the writes
  // evict staged inputs to fit, and the stage-out drains both final
  // outputs, which the policy keeps in the BB, one after the other.
  PlatformSpec small_bb = tiny();
  small_bb.storage[1].disk.capacity = 2000.0;
  wf::Workflow chain;
  chain.add_file({"in_a", 900.0});
  chain.add_file({"in_b", 900.0});
  chain.add_file({"mid", 900.0});
  chain.add_file({"out1", 300.0});
  chain.add_file({"out2", 300.0});
  chain.add_task({"a", "compute", 4e9, 0, 4, {"in_a", "in_b"}, {"mid"}});
  chain.add_task({"b", "compute", 4e9, 0, 4, {"mid"}, {"out1", "out2"}});
  ExecutionConfig stage_out = lifecycle_config();
  stage_out.placement = std::make_shared<exec::FractionPolicy>(
      1.0, exec::Tier::BurstBuffer, exec::Tier::BurstBuffer);
  stage_out.stage_in_width = 2;
  stage_out.bb_eviction = true;
  stage_out.stage_out = true;
  const Result r4 = Simulation(small_bb, chain, stage_out).run();
  EXPECT_EQ(r4.evicted_files, 2u);
  EXPECT_GT(r4.stage_out_duration, 0.0);

  for (const Result* r : {&r1, &r2, &r3, &r4}) EXPECT_EQ(r->audit_violations, 0u);
  // Lazy flow progress rounds differently from a per-interval walk: (1)
  // and (2) differ from the eager pins only in the last bits of their
  // times. Every hash covers the metrics section, flow.flows_settled too.
  EXPECT_EQ(result_hash(r1), "0xcb2c00913c8b065b");
  EXPECT_EQ(result_hash(r2), "0x700cd3783dc5c21c");
  EXPECT_EQ(result_hash(r3), "0xb04215922fb56631");
  EXPECT_EQ(result_hash(r4), "0x24e063f03191a61f");
}

}  // namespace
}  // namespace bbsim::resil
