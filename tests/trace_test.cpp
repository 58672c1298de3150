// Tests for the timeline/self-profiling subsystem (src/trace): recorder
// semantics, Perfetto export shape and determinism, profiler aggregation,
// and the wiring through engine, flows, storage and exec.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "json/json.hpp"
#include "platform/presets.hpp"
#include "resil/fault.hpp"
#include "stats/metrics.hpp"
#include "trace/profiler.hpp"
#include "trace/timeline.hpp"
#include "workflow/swarp.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::trace {
namespace {

// ------------------------------------------------------- TimelineRecorder

TEST(TimelineRecorder, CounterTracksDeduplicateByName) {
  TimelineRecorder rec;
  const TrackId a = rec.counter_track("bb.occupancy", "bytes");
  const TrackId b = rec.counter_track("bb.occupancy", "bytes");
  const TrackId c = rec.counter_track("queue", "events");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(rec.counter_track_count(), 2u);
}

TEST(TimelineRecorder, SamplesAtSameInstantCoalesceLastWins) {
  TimelineRecorder rec;
  const TrackId t = rec.counter_track("q", "events");
  rec.counter_sample(t, 0.0, 1.0);
  rec.counter_sample(t, 0.0, 2.0);
  rec.counter_sample(t, 1.0, 3.0);
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.counters.size(), 1u);
  ASSERT_EQ(tl.counters[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(tl.counters[0].samples[0].value, 2.0);
  EXPECT_DOUBLE_EQ(tl.counters[0].samples[1].value, 3.0);
}

TEST(TimelineRecorder, FlowLifecycleAndRateDedup) {
  TimelineRecorder rec;
  rec.flow_begin(7, 1.0, "transfer a", 100.0);
  rec.flow_rate(7, 1.0, 50.0);
  rec.flow_rate(7, 2.0, 50.0);  // unchanged: collapses
  rec.flow_rate(7, 3.0, 25.0);
  rec.flow_rate(7, 3.0, 20.0);  // same instant: last wins
  rec.flow_end(7, 5.0, true);
  EXPECT_EQ(rec.open_flow_count(), 0u);
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.flows.size(), 1u);
  const FlowSpan& f = tl.flows[0];
  EXPECT_EQ(f.label, "transfer a");
  EXPECT_TRUE(f.completed);
  EXPECT_DOUBLE_EQ(f.duration(), 4.0);
  EXPECT_DOUBLE_EQ(f.mean_rate(), 25.0);
  ASSERT_EQ(f.rates.size(), 2u);
  EXPECT_DOUBLE_EQ(f.rates[0].rate, 50.0);
  EXPECT_DOUBLE_EQ(f.rates[1].rate, 20.0);
}

TEST(TimelineRecorder, RecycledFlowIdOpensAFreshSpan) {
  TimelineRecorder rec;
  rec.flow_begin(0, 0.0, "first", 10.0);
  rec.flow_end(0, 1.0, true);
  rec.flow_begin(0, 2.0, "second", 20.0);  // the network recycled id 0
  rec.flow_end(0, 3.0, true);
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.flows.size(), 2u);
  EXPECT_EQ(tl.flows[0].label, "first");
  EXPECT_EQ(tl.flows[1].label, "second");
}

TEST(TimelineRecorder, FinishClosesOpenFlowsAsIncomplete) {
  TimelineRecorder rec;
  rec.flow_begin(3, 1.0, "hung", 10.0);
  rec.flow_rate(3, 4.0, 2.0);
  EXPECT_EQ(rec.open_flow_count(), 1u);
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.flows.size(), 1u);
  EXPECT_FALSE(tl.flows[0].completed);
  EXPECT_DOUBLE_EQ(tl.flows[0].t_end, 4.0);  // last known instant
}

TEST(TimelineRecorder, InfiniteRatesAreSkipped) {
  TimelineRecorder rec;
  rec.flow_begin(1, 0.0, "", 0.0);
  rec.flow_rate(1, 0.0, std::numeric_limits<double>::infinity());
  rec.flow_end(1, 0.0, true);
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.flows.size(), 1u);
  EXPECT_TRUE(tl.flows[0].rates.empty());
}

TaskSpan make_task(const std::string& name, std::size_t host, double start,
                   double end) {
  TaskSpan t;
  t.name = name;
  t.host = host;
  t.t_ready = start;
  t.t_start = start;
  t.t_reads_done = start;
  t.t_compute_done = end;
  t.t_end = end;
  return t;
}

TEST(TimelineRecorder, FinishSortsTasksAndAssignsLanes) {
  TimelineRecorder rec;
  rec.add_task(make_task("late", 0, 5.0, 6.0));
  rec.add_task(make_task("early", 0, 0.0, 2.0));
  rec.add_task(make_task("overlap", 0, 1.0, 3.0));
  rec.add_task(make_task("other_host", 1, 0.0, 4.0));
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.tasks.size(), 4u);
  EXPECT_EQ(tl.tasks[0].name, "early");
  EXPECT_EQ(tl.tasks[1].name, "overlap");
  EXPECT_EQ(tl.tasks[2].name, "late");
  EXPECT_EQ(tl.tasks[3].name, "other_host");
  EXPECT_EQ(tl.tasks[0].lane, 0u);
  EXPECT_EQ(tl.tasks[1].lane, 1u);  // overlaps "early": next lane
  EXPECT_EQ(tl.tasks[2].lane, 0u);  // "early" ended: first lane reused
  EXPECT_EQ(tl.tasks[3].lane, 0u);  // lanes restart per host
}

TEST(TimelineRecorder, FinishSortsCounterTracksByName) {
  TimelineRecorder rec;
  rec.counter_track("zeta", "");
  rec.counter_track("alpha", "");
  const Timeline tl = rec.finish();
  ASSERT_EQ(tl.counters.size(), 2u);
  EXPECT_EQ(tl.counters[0].name, "alpha");
  EXPECT_EQ(tl.counters[1].name, "zeta");
}

// -------------------------------------------------------------- to_perfetto

TEST(Perfetto, ExportHasTraceEventShape) {
  TimelineRecorder rec;
  rec.set_host_names({"h0"});
  rec.add_task(make_task("t", 0, 0.0, 2.0));
  rec.flow_begin(0, 0.5, "transfer x", 100.0);
  rec.flow_rate(0, 0.5, 200.0);
  rec.flow_end(0, 1.0, true);
  const TrackId q = rec.counter_track("queue", "events");
  rec.counter_sample(q, 0.0, 1.0);
  const json::Value doc = rec.finish().to_perfetto();

  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "bbsim.timeline.v1");
  std::set<std::string> phases;
  bool saw_host_name = false;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    phases.insert(e.at("ph").as_string());
    EXPECT_GE(e.at("pid").as_int(), 1);  // pid 0 stays reserved
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "process_name" && e.at("pid").as_int() == 1) {
      EXPECT_EQ(e.at("args").at("name").as_string(), "h0");
      saw_host_name = true;
    }
    if (e.at("ph").as_string() == "X") {
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
  }
  EXPECT_EQ(phases, (std::set<std::string>{"M", "X", "C"}));
  EXPECT_TRUE(saw_host_name);
}

TEST(Perfetto, TaskPhasesNestWithinTheTaskSpan) {
  TimelineRecorder rec;
  TaskSpan t = make_task("t", 0, 1.0, 4.0);
  t.t_reads_done = 2.0;
  t.t_compute_done = 3.0;
  rec.add_task(t);
  const json::Value doc = rec.finish().to_perfetto();
  std::vector<std::string> phase_names;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("cat").as_string() == "phase") {
      phase_names.push_back(e.at("name").as_string());
      // Microseconds, inside [1s, 4s].
      EXPECT_GE(e.at("ts").as_number(), 1e6);
      EXPECT_LE(e.at("ts").as_number() + e.at("dur").as_number(), 4e6);
    }
  }
  EXPECT_EQ(phase_names, (std::vector<std::string>{"read", "compute", "write"}));
}

TEST(Perfetto, ZeroLengthPhasesAreOmitted) {
  TimelineRecorder rec;
  rec.add_task(make_task("t", 0, 0.0, 2.0));  // reads_done == start: no read
  const json::Value doc = rec.finish().to_perfetto();
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("cat").as_string() == "phase") {
      EXPECT_EQ(e.at("name").as_string(), "compute");
    }
  }
}

// ----------------------------------------------------------------- Profiler

TEST(Profiler, SectionsAggregateAndPointersAreStable) {
  Profiler p;
  ProfileSection* s = p.section("solver");
  EXPECT_EQ(p.section("solver"), s);
  s->record(0.5);
  s->record(1.5);
  EXPECT_EQ(s->calls, 2u);
  EXPECT_DOUBLE_EQ(s->total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s->max_seconds, 1.5);
}

TEST(Profiler, ScopedTimerWithNullSectionIsFree) {
  { const ScopedTimer t(nullptr); }  // must not crash or record anything
  Profiler p;
  ProfileSection* s = p.section("x");
  { const ScopedTimer t(s); }
  EXPECT_EQ(s->calls, 1u);
  EXPECT_GE(s->total_seconds, 0.0);
}

TEST(Profiler, MergeFoldsSections) {
  Profiler a, b;
  a.section("solver")->record(1.0);
  b.section("solver")->record(3.0);
  b.section("dispatch")->record(0.5);
  a.merge(b);
  EXPECT_EQ(a.section("solver")->calls, 2u);
  EXPECT_DOUBLE_EQ(a.section("solver")->total_seconds, 4.0);
  EXPECT_DOUBLE_EQ(a.section("solver")->max_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.section("dispatch")->total_seconds, 0.5);
}

TEST(Profiler, JsonIsMarkedNondeterministicAndInsertionOrdered) {
  Profiler p;
  p.section("zeta")->record(1.0);
  p.section("alpha")->record(2.0);
  const json::Value v = p.to_json();
  EXPECT_TRUE(v.at("nondeterministic").as_bool());
  // Sections report in registration order: registering a new section never
  // reshuffles the existing ones in the report.
  const json::Array& sections = v.at("sections").as_array();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].at("name").as_string(), "zeta");
  EXPECT_EQ(sections[1].at("name").as_string(), "alpha");
  EXPECT_DOUBLE_EQ(sections[0].at("mean_seconds").as_number(), 1.0);
}

TEST(Profiler, PublishesIntoMetricsRegistry) {
  Profiler p;
  p.section("solver")->record(2.0);
  stats::MetricsRegistry reg;
  p.publish(reg);
  ASSERT_NE(reg.find_counter("profile.solver.calls"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_counter("profile.solver.calls")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_counter("profile.solver.seconds")->value(), 2.0);
}

// ------------------------------------------------- end-to-end through exec

platform::PlatformSpec tiny() {
  platform::PlatformSpec p;
  p.name = "tiny";
  p.hosts.push_back({"h0", 4, 1e9, platform::kUnlimited});
  platform::StorageSpec pfs;
  pfs.name = "pfs";
  pfs.kind = platform::StorageKind::PFS;
  pfs.disk = {100.0, 100.0, platform::kUnlimited};
  pfs.link = {1000.0, 0.0};
  p.storage.push_back(pfs);
  platform::StorageSpec bb;
  bb.name = "bb";
  bb.kind = platform::StorageKind::SharedBB;
  bb.disk = {950.0, 950.0, platform::kUnlimited};
  bb.link = {800.0, 0.0};
  p.storage.push_back(bb);
  p.validate_and_normalize();
  return p;
}

wf::Workflow io_workflow() {
  wf::Workflow w;
  w.add_file({"in", 100.0});
  w.add_file({"out", 50.0});
  w.add_task({"t", "compute", 4e9, 0.0, 4, {"in"}, {"out"}});
  return w;
}

TEST(SimulationTimeline, NullUnlessOptedIn) {
  exec::Simulation sim(tiny(), io_workflow(), {});
  EXPECT_EQ(sim.timeline_recorder(), nullptr);
  EXPECT_EQ(sim.profiler(), nullptr);
  const exec::Result r = sim.run();
  EXPECT_EQ(r.timeline, nullptr);
  EXPECT_TRUE(r.profile.is_null());
}

TEST(SimulationTimeline, RecordsTasksFlowsAndCounters) {
  exec::ExecutionConfig cfg;
  cfg.collect_timeline = true;
  exec::Simulation sim(tiny(), io_workflow(), cfg);
  ASSERT_NE(sim.timeline_recorder(), nullptr);
  const exec::Result r = sim.run();
  ASSERT_NE(r.timeline, nullptr);
  const Timeline& tl = *r.timeline;

  ASSERT_GE(tl.tasks.size(), 1u);  // "t" plus the synthesised stage-in task
  const auto t = std::find_if(tl.tasks.begin(), tl.tasks.end(),
                              [](const TaskSpan& s) { return s.name == "t"; });
  ASSERT_NE(t, tl.tasks.end());
  EXPECT_DOUBLE_EQ(t->bytes_read, 100.0);
  EXPECT_DOUBLE_EQ(t->bytes_written, 50.0);
  EXPECT_GT(t->t_end, t->t_start);

  // Stage-in transfer + task read + task write, each with a label. Data
  // flows carry at least one solver-granted rate; metadata flows on the
  // tiny platform are unconstrained (rate = inf, skipped by design).
  ASSERT_GE(tl.flows.size(), 3u);
  for (const FlowSpan& f : tl.flows) {
    EXPECT_FALSE(f.label.empty());
    EXPECT_TRUE(f.completed);
    if (f.label.find("[meta]") == std::string::npos) {
      EXPECT_FALSE(f.rates.empty()) << f.label;
    }
  }
  const auto read = std::find_if(
      tl.flows.begin(), tl.flows.end(), [](const FlowSpan& f) {
        return f.label.find("read in") != std::string::npos &&
               f.label.find("[meta]") == std::string::npos;
      });
  ASSERT_NE(read, tl.flows.end());
  EXPECT_DOUBLE_EQ(read->bytes, 100.0);

  std::vector<std::string> names;
  for (const CounterTrack& c : tl.counters) names.push_back(c.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "sim.queue_depth"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "storage.bb.occupancy_bytes"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(),
                      "storage.bb.achieved_bandwidth"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(),
                      "storage.pfs.achieved_bandwidth"),
            names.end());
}

TEST(SimulationTimeline, ResultsStayIdenticalWithTimelineOn) {
  // The observer must never change the physics.
  exec::Simulation plain(tiny(), io_workflow(), {});
  exec::ExecutionConfig cfg;
  cfg.collect_timeline = true;
  cfg.profile = true;
  exec::Simulation observed(tiny(), io_workflow(), cfg);
  EXPECT_DOUBLE_EQ(plain.run().makespan, observed.run().makespan);

  // Nor the other instruments: the metrics report of a run is the same with
  // a timeline attached (each sink takes exactly one t=0 occupancy sample).
  const auto metrics_dump = [](bool timeline) {
    exec::ExecutionConfig c;
    c.collect_metrics = true;
    c.collect_timeline = timeline;
    wf::SwarpConfig swarp;
    swarp.pipelines = 2;
    exec::Simulation sim(platform::cori_platform({}), wf::make_swarp(swarp), c);
    return sim.run().metrics.dump(2);
  };
  EXPECT_EQ(metrics_dump(true), metrics_dump(false));
}

TEST(SimulationTimeline, PerfettoExportIsDeterministic) {
  const auto run_once = [] {
    exec::ExecutionConfig cfg;
    cfg.collect_timeline = true;
    wf::SwarpConfig swarp;
    swarp.pipelines = 2;
    exec::Simulation sim(platform::cori_platform({}), wf::make_swarp(swarp), cfg);
    return sim.run().timeline->to_perfetto().dump(2);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulationProfile, CollectsSectionsAndPublishesMetrics) {
  exec::ExecutionConfig cfg;
  cfg.profile = true;
  cfg.collect_metrics = true;
  exec::Simulation sim(tiny(), io_workflow(), cfg);
  ASSERT_NE(sim.profiler(), nullptr);
  const exec::Result r = sim.run();
  ASSERT_FALSE(r.profile.is_null());
  EXPECT_TRUE(r.profile.at("nondeterministic").as_bool());
  std::set<std::string> names;
  for (const json::Value& s : r.profile.at("sections").as_array()) {
    names.insert(s.at("name").as_string());
    EXPECT_GE(s.at("calls").as_number(), 1.0);
  }
  EXPECT_TRUE(names.count("flow.solve"));
  EXPECT_TRUE(names.count("sim.dispatch"));
  EXPECT_TRUE(names.count("exec.placement"));
  // Published into the registry too.
  ASSERT_TRUE(r.metrics.contains("counters"));
  EXPECT_TRUE(r.metrics.at("counters").contains("profile.flow.solve.calls"));
  // The profile rides along in the full result JSON.
  EXPECT_TRUE(r.to_json().contains("profile"));
}

TEST(SimulationMetrics, BandwidthSeriesLandsInStorageCounters) {
  exec::ExecutionConfig cfg;
  cfg.collect_metrics = true;
  exec::Simulation sim(tiny(), io_workflow(), cfg);
  const exec::Result r = sim.run();
  bool saw_nonempty = false;
  for (const exec::StorageCounters& s : r.storage) {
    if (s.bytes_served > 0.0) {
      EXPECT_FALSE(s.bandwidth_series.empty())
          << s.service << " served bytes but has no bandwidth series";
    }
    for (const auto& [time, bw] : s.bandwidth_series) {
      EXPECT_GE(time, 0.0);
      EXPECT_GE(bw, 0.0);
      saw_nonempty = true;
    }
  }
  EXPECT_TRUE(saw_nonempty);
  // And to_json carries it.
  const json::Value v = r.to_json();
  bool json_has_series = false;
  for (const json::Value& s : v.at("storage").as_array()) {
    if (s.contains("bandwidth_series")) json_has_series = true;
  }
  EXPECT_TRUE(json_has_series);
}

// -------------------------------------------------------- TraceEventKind

TEST(TraceEventKind, AllKindsHaveUniqueWireNames) {
  std::set<std::string> names;
  std::set<std::string> internal;
  for (const exec::TraceEventKind kind : exec::kAllTraceEventKinds) {
    const std::string name = exec::to_string(kind);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate wire name " << name;
    if (!exec::exported(kind)) internal.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(exec::kAllTraceEventKinds));
  for (const std::string& name : internal) names.erase(name);
  // The documented closed set, spelled out: a new kind must be added here
  // (and to docs/observability.md) deliberately.
  EXPECT_EQ(names,
            (std::set<std::string>{
                "task_ready", "task_start", "reads_done", "compute_done",
                "write", "task_end", "stage_file", "stage_skipped", "stage_out",
                "evict",
                // resilience events (src/resil)
                "node_crash", "node_repair", "bb_degraded", "pfs_brownout",
                "fault_cleared", "task_killed", "task_restart", "rollback",
                "checkpoint", "checkpoint_drained"}));
  // Kinds that only feed the critical-path fold never reach the trace.
  EXPECT_EQ(internal, (std::set<std::string>{"read", "checkpoint_done"}));
}

/// kind -> "detail" of its first occurrence in the exported trace, plus
/// every distinct fault_cleared detail.
void first_details(const exec::Result& r, std::map<std::string, std::string>& first,
                   std::set<std::string>& cleared) {
  const json::Value doc = r.to_json();
  for (const json::Value& e : doc.at("trace").as_array()) {
    const std::string kind = e.get_string("kind", "");
    first.emplace(kind, e.get_string("detail", ""));
    if (kind == "fault_cleared") cleared.insert(e.get_string("detail", ""));
  }
}

// Only Result::to_json reads an event's payload as text, so the wire text
// of every exported kind is pinned here, literally.
TEST(TraceEventKind, ExportedDetailTextIsPinned) {
  std::map<std::string, std::string> first;
  std::set<std::string> cleared;
  {
    // Staging into a 1000 B BB with LRU eviction: "a" is staged, "b" evicts
    // it, "big" can never fit; the final product drains at stage-out.
    platform::PlatformSpec p = tiny();
    p.storage[1].disk.capacity = 1000.0;
    p.validate_and_normalize();
    wf::Workflow w;
    w.add_file({"a", 600.0});
    w.add_file({"b", 500.0});
    w.add_file({"big", 5000.0});
    w.add_file({"mid", 200.0});
    w.add_file({"out", 100.0});
    w.add_task({"stage", "stage_in", 0.0, 0.0, 1, {}, {}});
    w.add_task({"t1", "compute", 4e9, 0.0, 4, {"a", "b", "big"}, {"mid"}});
    w.add_task({"t2", "compute", 4e9, 0.0, 2, {"mid"}, {"out"}});
    w.add_control_dep("stage", "t1");
    exec::ExecutionConfig cfg;
    cfg.placement = std::make_shared<exec::FractionPolicy>(1.0, exec::Tier::BurstBuffer,
                                                           exec::Tier::BurstBuffer);
    cfg.bb_eviction = true;
    cfg.stage_out = true;
    first_details(exec::Simulation(p, w, cfg).run(), first, cleared);
  }
  {
    // Node crashes on node-local BBs (kills, restarts and a rollback), BB
    // and PFS degradation windows, interval checkpoints with drains.
    platform::PresetOptions popt;
    popt.compute_nodes = 1;
    wf::SwarpConfig swarp;
    swarp.pipelines = 2;
    exec::ExecutionConfig cfg;
    cfg.faults = resil::FaultSpec::parse(
        "node_mtbf=40,node_repair=5,seed=9,bb_mtbf=30,bb_degrade=0.25,bb_duration=5,"
        "pfs_mtbf=30,pfs_brownout=0.6,pfs_duration=7,horizon=400");
    cfg.checkpoint = resil::CheckpointSpec::parse("interval=15,fraction=0.1,restart=2");
    first_details(
        exec::Simulation(platform::summit_platform(popt), wf::make_swarp(swarp), cfg).run(),
        first, cleared);
  }
  const std::map<std::string, std::string> expected = {
      {"task_ready", ""},
      {"task_start", "host=0 cores=1"},
      {"reads_done", ""},
      {"compute_done", ""},
      {"write", "mid -> bb"},
      {"task_end", ""},
      {"stage_file", "a -> bb (host 0)"},
      {"stage_skipped", "big"},
      {"stage_out", "out"},
      {"evict", "a"},
      {"node_crash", "host=0"},
      {"node_repair", "host=0"},
      {"bb_degraded", "scale=0.250 duration=5.0"},
      {"pfs_brownout", "scale=0.600 duration=7.0"},
      {"fault_cleared", "bb"},
      {"task_killed", "host=0 attempt=1"},
      {"task_restart", "attempt=2"},
      {"rollback", "attempt=2"},
      {"checkpoint", "combine_000.ckpt -> bb"},
      {"checkpoint_drained", ""},
  };
  EXPECT_EQ(first, expected);
  EXPECT_EQ(cleared, (std::set<std::string>{"bb", "pfs"}));
}

}  // namespace
}  // namespace bbsim::trace
