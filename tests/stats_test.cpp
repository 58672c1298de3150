// Unit + end-to-end tests for the metrics subsystem (src/stats) and its
// wiring through the simulation layers and the CLI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "exec/engine.hpp"
#include "json/json.hpp"
#include "stats/metrics.hpp"
#include "testbed/testbed.hpp"
#include "workflow/swarp.hpp"

namespace bbsim::stats {
namespace {

// ----------------------------------------------------------------- Counter

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

// ------------------------------------------------------------------- Gauge

TEST(Gauge, TracksValueAndPeak) {
  Gauge g;
  g.set(5.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.peak(), 5.0);
  g.add(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  EXPECT_DOUBLE_EQ(g.peak(), 12.0);
}

// -------------------------------------------------------------- TimeSeries

TEST(TimeSeries, SummaryIsExact) {
  TimeSeries ts;
  ts.sample(0.0, 4.0);
  ts.sample(1.0, 2.0);
  ts.sample(2.0, 6.0);
  const SeriesSummary s = ts.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.peak, 6.0);
  EXPECT_DOUBLE_EQ(s.last, 6.0);
}

TEST(TimeSeries, WeightedMeanUsesWeights) {
  TimeSeries ts;
  ts.sample(0.0, 1.0, /*weight=*/3.0);
  ts.sample(1.0, 5.0, /*weight=*/1.0);
  EXPECT_DOUBLE_EQ(ts.summary().mean, 2.0);  // (3*1 + 1*5) / 4
}

TEST(TimeSeries, DecimationBoundsBufferButNotSummary) {
  const std::size_t max = 16;
  TimeSeries ts(max);
  const std::size_t total = 10000;
  for (std::size_t i = 0; i < total; ++i) {
    ts.sample(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_LE(ts.samples().size(), max);
  EXPECT_GE(ts.stride(), total / max);
  const SeriesSummary s = ts.summary();
  EXPECT_EQ(s.count, total);  // exact even after decimation
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.peak, static_cast<double>(total - 1));
  EXPECT_DOUBLE_EQ(s.last, static_cast<double>(total - 1));
  // Retained samples stay in time order.
  for (std::size_t i = 1; i < ts.samples().size(); ++i) {
    EXPECT_LT(ts.samples()[i - 1].time, ts.samples()[i].time);
  }
}

// --------------------------------------------------------------- Histogram

TEST(Histogram, DegenerateValuesLandInTheUnderflowBucket) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-300), 0u);  // below the bottom edge
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            0u);
  // Beyond the top edge: saturates into the last bucket instead of UB.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, BucketEdgesArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(0), 0.0);
  // Bucket i spans [lower, 2*lower): the lower edge belongs to the bucket,
  // the upper edge to the next one.
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double lower = Histogram::bucket_lower_bound(i);
    EXPECT_GT(lower, Histogram::bucket_lower_bound(i - 1));
    EXPECT_EQ(Histogram::bucket_index(lower), i);
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(2.0 * lower, 0.0)), i);
    EXPECT_EQ(Histogram::bucket_index(2.0 * lower), i + 1);
  }
  // Unit values sit in the bucket whose lower edge is exactly 1.
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(1.0)),
                   1.0);
}

TEST(Histogram, RecordKeepsExactSummary) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);  // no division by zero on the empty case
  h.record(2.0);
  h.record(8.0);
  h.record(0.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0 / 3.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // the zero
  EXPECT_EQ(h.buckets()[Histogram::bucket_index(2.0)], 1u);
  EXPECT_EQ(h.buckets()[Histogram::bucket_index(8.0)], 1u);
}

TEST(Histogram, QuantileEndpointsAreExact) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int v = 1; v <= 100; ++v) h.record(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);    // exact recorded min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);  // exact recorded max
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 100.0);  // clamped
}

TEST(Histogram, QuantileIsBucketAccurate) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  // Power-of-two buckets: the interpolated quantile is within one bucket
  // width (a factor of 2) of the exact order statistic.
  for (const double q : {0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double exact = 1.0 + q * 999.0;
    const double approx = h.quantile(q);
    EXPECT_GE(approx, exact / 2.0) << "q=" << q;
    EXPECT_LE(approx, exact * 2.0) << "q=" << q;
  }
  // Monotone in q.
  double prev = h.quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Histogram, QuantileOfSingleValueIsThatValue) {
  Histogram h;
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

// ---------------------------------------------------------------- Registry

TEST(MetricsRegistry, ReferencesAreStableAcrossInserts) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a.add(1.0);
  // Force rebalancing pressure: many later insertions must not move "a".
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  a.add(1.0);
  EXPECT_DOUBLE_EQ(reg.counter("a").value(), 2.0);
  EXPECT_EQ(reg.counter_count(), 101u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_series("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.counter_count(), 0u);
  EXPECT_EQ(reg.histogram_count(), 0u);
  reg.counter("hit").add(7.0);
  ASSERT_NE(reg.find_counter("hit"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_counter("hit")->value(), 7.0);
}

TEST(MetricsRegistry, JsonExportIsDeterministicAndTyped) {
  MetricsRegistry reg;
  reg.counter("z.count").add(3.0);
  reg.counter("a.count").add(1.0);
  reg.gauge("depth").set(4.0);
  reg.series("util").sample(0.0, 0.5);
  const json::Value v = reg.to_json();
  EXPECT_EQ(v.at("schema").as_string(), "bbsim.metrics.v1");
  EXPECT_DOUBLE_EQ(v.at("counters").at("a.count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("counters").at("z.count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("depth").at("peak").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(v.at("series").at("util").at("mean").as_number(), 0.5);
  // Round-trips through the writer/parser and is byte-stable.
  const std::string once = v.dump(2);
  EXPECT_EQ(json::parse(once).dump(2), once);
  EXPECT_EQ(reg.to_json().dump(2), once);
  // Summaries-only export drops the sample arrays.
  const json::Value lean = reg.to_json(/*include_samples=*/false);
  EXPECT_FALSE(lean.at("series").at("util").contains("samples"));
}

TEST(MetricsRegistry, HistogramJsonExportsNonEmptyBucketsInOrder) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("durations");
  h.record(1.0);
  h.record(1.5);  // same [1, 2) bucket as the 1.0
  h.record(1024.0);
  ASSERT_NE(reg.find_histogram("durations"), nullptr);
  const json::Value v = reg.to_json();
  const json::Value& entry = v.at("histograms").at("durations");
  EXPECT_DOUBLE_EQ(entry.at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(entry.at("sum").as_number(), 1026.5);
  EXPECT_DOUBLE_EQ(entry.at("min").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(entry.at("max").as_number(), 1024.0);
  // Only the two occupied buckets export, as [lower_edge, count] pairs in
  // ascending edge order.
  const json::Array& buckets = entry.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].as_array()[1].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(buckets[1].as_array()[0].as_number(), 1024.0);
  EXPECT_DOUBLE_EQ(buckets[1].as_array()[1].as_number(), 1.0);
  // Byte-stable across repeated dumps (golden-file friendly).
  EXPECT_EQ(reg.to_json().dump(2), v.dump(2));
}

}  // namespace
}  // namespace bbsim::stats

// ------------------------------------------------- end-to-end (simulation)

namespace bbsim {
namespace {

exec::Result run_swarp_with_metrics(stats::MetricsRegistry** out = nullptr) {
  wf::SwarpConfig scfg;
  scfg.pipelines = 2;
  scfg.cores_per_task = 1;
  exec::ExecutionConfig cfg;
  cfg.collect_metrics = true;
  static std::unique_ptr<exec::Simulation> sim;  // keep registry alive
  sim = std::make_unique<exec::Simulation>(
      testbed::paper_platform(testbed::System::CoriPrivate), wf::make_swarp(scfg),
      cfg);
  exec::Result r = sim->run();
  if (out != nullptr) *out = sim->metrics();
  return r;
}

TEST(SimulationMetrics, RegistryIsNullWhenDisabled) {
  wf::SwarpConfig scfg;
  scfg.cores_per_task = 1;
  exec::Simulation sim(testbed::paper_platform(testbed::System::CoriPrivate),
                       wf::make_swarp(scfg), {});
  EXPECT_EQ(sim.metrics(), nullptr);
  const exec::Result r = sim.run();
  EXPECT_TRUE(r.metrics.is_null());
}

TEST(SimulationMetrics, CollectsEngineSolverAndStorageMetrics) {
  stats::MetricsRegistry* reg = nullptr;
  const exec::Result result = run_swarp_with_metrics(&reg);
  ASSERT_NE(reg, nullptr);
  // Engine event counts.
  ASSERT_NE(reg->find_counter("sim.events_scheduled"), nullptr);
  ASSERT_NE(reg->find_counter("sim.events_executed"), nullptr);
  EXPECT_GT(reg->find_counter("sim.events_executed")->value(), 0.0);
  EXPECT_GE(reg->find_counter("sim.events_scheduled")->value(),
            reg->find_counter("sim.events_executed")->value());
  // Solver totals.
  ASSERT_NE(reg->find_counter("flow.solve_calls"), nullptr);
  ASSERT_NE(reg->find_counter("flow.solve_rounds"), nullptr);
  EXPECT_GE(reg->find_counter("flow.solve_rounds")->value(),
            reg->find_counter("flow.solve_calls")->value());
  EXPECT_GT(reg->find_gauge("flow.active_flows")->peak(), 0.0);
  // BB occupancy timeline: SWarp stages files into the BB, so the peak
  // occupancy must be positive.
  const stats::Gauge* bb = reg->find_gauge("storage.bb.occupancy_bytes");
  ASSERT_NE(bb, nullptr);
  EXPECT_GT(bb->peak(), 0.0);
  const stats::TimeSeries* bb_ts = reg->find_series("storage.bb.occupancy_bytes");
  ASSERT_NE(bb_ts, nullptr);
  EXPECT_DOUBLE_EQ(bb_ts->summary().peak, bb->peak());
  // Task breakdown aggregates.
  EXPECT_DOUBLE_EQ(reg->find_counter("exec.tasks_completed")->value(),
                   static_cast<double>(result.tasks.size()));
  EXPECT_GT(reg->find_counter("exec.task_compute_time")->value(), 0.0);
  // Per-resource utilization series exist and stay within [0, 1]-ish.
  bool saw_util = false;
  const json::Value v = result.metrics;
  ASSERT_TRUE(v.is_object());
  for (const auto& [name, entry] : v.at("series").as_object()) {
    if (name.rfind("flow.util.", 0) != 0) continue;
    saw_util = true;
    EXPECT_GE(entry.at("min").as_number(), 0.0);
    EXPECT_LE(entry.at("peak").as_number(), 1.0 + 1e-6) << name;
  }
  EXPECT_TRUE(saw_util);
}

TEST(SimulationMetrics, ImplicitStagingRegistersInputsOnce) {
  // A Task-mode run without a stage-in task stages its inputs up front.
  // The inputs reach the PFS once, so its occupancy series repeats no
  // sample when the staging ends.
  wf::Workflow w;
  w.add_file({"in_a", 4e9});
  w.add_file({"in_b", 4e9});
  w.add_file({"out", 1e9});
  w.add_task({"t", "compute", 1e9, 0.0, 1, {"in_a", "in_b"}, {"out"}});
  exec::ExecutionConfig cfg;
  cfg.collect_metrics = true;
  exec::Simulation sim(testbed::paper_platform(testbed::System::CoriPrivate), w, cfg);
  const exec::Result r = sim.run();
  ASSERT_GT(r.stage_in_duration, 0.0);
  const stats::TimeSeries* pfs = sim.metrics()->find_series(
      "storage." + sim.storage().pfs().name() + ".occupancy_bytes");
  ASSERT_NE(pfs, nullptr);
  const std::vector<stats::Sample>& samples = pfs->samples();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_FALSE(samples[i].time == samples[i - 1].time &&
                 samples[i].value == samples[i - 1].value)
        << "repeated sample at t=" << samples[i].time;
  }
}

TEST(SimulationMetrics, HistogramsTrackSolverRoundsAndTransferDurations) {
  stats::MetricsRegistry* reg = nullptr;
  run_swarp_with_metrics(&reg);
  ASSERT_NE(reg, nullptr);
  // Solver rounds per solve(): the histogram's exact count/sum must agree
  // with the scalar counters the solver already publishes.
  const stats::Histogram* rounds =
      reg->find_histogram("flow.solve_rounds_per_call");
  ASSERT_NE(rounds, nullptr);
  EXPECT_DOUBLE_EQ(static_cast<double>(rounds->count()),
                   reg->find_counter("flow.solve_calls")->value());
  EXPECT_DOUBLE_EQ(rounds->sum(),
                   reg->find_counter("flow.solve_rounds")->value());
  // Empty re-solves (last flow just retired) record zero rounds; any real
  // solve records at least one.
  EXPECT_GE(rounds->min(), 0.0);
  EXPECT_GE(rounds->max(), 1.0);
  // Per-flow transfer durations.
  const stats::Histogram* transfers =
      reg->find_histogram("flow.transfer_seconds");
  ASSERT_NE(transfers, nullptr);
  EXPECT_GT(transfers->count(), 0u);
  EXPECT_GE(transfers->min(), 0.0);
  EXPECT_GE(transfers->max(), transfers->min());
}

TEST(SimulationMetrics, ResultJsonEmbedsMetrics) {
  const exec::Result result = run_swarp_with_metrics();
  const json::Value v = result.to_json();
  ASSERT_TRUE(v.contains("metrics"));
  EXPECT_EQ(v.at("metrics").at("schema").as_string(), "bbsim.metrics.v1");
}

}  // namespace
}  // namespace bbsim

// ------------------------------------------------------ CLI --metrics-out

namespace bbsim::cli {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliMetrics, MetricsOutWritesStableWellFormedJson) {
  const std::string path = "cli_metrics_test.json";
  const std::vector<std::string> args = {"--workflow", "swarp",
                                         "--pipelines", "2",
                                         "--quiet",
                                         "--metrics-out", path};
  ASSERT_EQ(run_cli(parse_cli(args)), 0);
  const std::string first = slurp(path);
  ASSERT_FALSE(first.empty());
  // Well-formed, with the contract's minimum content.
  const json::Value v = json::parse(first);
  EXPECT_EQ(v.at("schema").as_string(), "bbsim.metrics.v1");
  EXPECT_GT(v.at("counters").at("sim.events_executed").as_number(), 0.0);
  EXPECT_GT(v.at("counters").at("flow.solve_rounds").as_number(), 0.0);
  EXPECT_GT(v.at("gauges").at("storage.bb.occupancy_bytes").at("peak").as_number(),
            0.0);
  bool saw_util = false;
  for (const auto& [name, entry] : v.at("series").as_object()) {
    if (name.rfind("flow.util.", 0) == 0) {
      saw_util = true;
      EXPECT_TRUE(entry.contains("mean"));
      EXPECT_TRUE(entry.contains("peak"));
    }
  }
  EXPECT_TRUE(saw_util);
  // Golden stability: the same run serialises byte-identically.
  ASSERT_EQ(run_cli(parse_cli(args)), 0);
  EXPECT_EQ(slurp(path), first);
  std::remove(path.c_str());
}

TEST(CliMetrics, ParseRoundTrip) {
  const CliOptions opt = parse_cli({"--metrics-out", "m.json"});
  EXPECT_EQ(opt.metrics_path, "m.json");
  EXPECT_TRUE(parse_cli({}).metrics_path.empty());
}

}  // namespace
}  // namespace bbsim::cli
