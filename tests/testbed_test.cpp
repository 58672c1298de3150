// Unit tests for the synthetic testbed emulator.
#include <gtest/gtest.h>

#include "exec/engine.hpp"
#include "testbed/testbed.hpp"
#include "workflow/swarp.hpp"

namespace bbsim::testbed {
namespace {

using platform::BBMode;
using platform::PlatformSpec;
using platform::StorageKind;

TEST(TestbedPlatform, OverlaysApplied) {
  TestbedOptions opt;
  const PlatformSpec p = testbed_platform(System::CoriPrivate, opt);
  const platform::StorageSpec& bb = p.storage[p.find_kind(StorageKind::SharedBB)];
  EXPECT_LT(bb.stream_bw, platform::kUnlimited);
  EXPECT_GT(bb.base_latency, 0.0);
  EXPECT_LT(bb.metadata_ops_per_sec, platform::kUnlimited);
  EXPECT_EQ(bb.mode, BBMode::Private);
}

TEST(TestbedPlatform, StripedSpreadsTableOneAggregate) {
  const PlatformSpec p = testbed_platform(System::CoriStriped, {});
  const platform::StorageSpec& bb = p.storage[p.find_kind(StorageKind::SharedBB)];
  EXPECT_EQ(bb.mode, BBMode::Striped);
  EXPECT_GT(bb.num_nodes, 1);
  // Aggregate disk bandwidth stays at Table I's 950 MB/s.
  EXPECT_NEAR(bb.disk.read_bw * bb.num_nodes, 950e6, 1.0);
  EXPECT_NEAR(bb.link.bandwidth * bb.num_nodes, 800e6, 1.0);
}

TEST(TestbedPlatform, SummitAsymmetricDevice) {
  const PlatformSpec p = testbed_platform(System::Summit, {});
  const platform::StorageSpec& bb = p.storage[p.find_kind(StorageKind::NodeLocalBB)];
  EXPECT_DOUBLE_EQ(bb.disk.read_bw, 6.0e9);   // PM1725a read
  EXPECT_DOUBLE_EQ(bb.disk.write_bw, 2.1e9);  // PM1725a write
}

TEST(TestbedPlatform, PaperPlatformIsPlainTableOne) {
  const PlatformSpec p = paper_platform(System::CoriStriped);
  const platform::StorageSpec& bb = p.storage[p.find_kind(StorageKind::SharedBB)];
  EXPECT_EQ(bb.stream_bw, platform::kUnlimited);
  EXPECT_EQ(bb.metadata_ops_per_sec, platform::kUnlimited);
  EXPECT_DOUBLE_EQ(bb.disk.read_bw, 950e6);
  EXPECT_EQ(bb.mode, BBMode::Striped);
}

TEST(Testbed, NoNoiseIsDeterministic) {
  TestbedOptions opt;
  opt.noise = false;
  opt.repetitions = 3;
  Testbed tb(System::CoriPrivate, opt);
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto results = tb.run_repetitions(w, cfg);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].makespan, results[1].makespan);
  EXPECT_DOUBLE_EQ(results[1].makespan, results[2].makespan);
}

TEST(Testbed, NoiseCreatesRunToRunVariation) {
  TestbedOptions opt;
  opt.repetitions = 5;
  Testbed tb(System::CoriStriped, opt);
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto results = tb.run_repetitions(w, cfg);
  const MeasuredStats stats = Testbed::summarize(results);
  EXPECT_GT(stats.makespan.stddev, 0.0);
}

TEST(Testbed, SameSeedSameResults) {
  TestbedOptions opt;
  opt.repetitions = 2;
  opt.seed = 123;
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto a = Testbed(System::CoriPrivate, opt).run_repetitions(w, cfg);
  const auto b = Testbed(System::CoriPrivate, opt).run_repetitions(w, cfg);
  EXPECT_DOUBLE_EQ(a[0].makespan, b[0].makespan);
  EXPECT_DOUBLE_EQ(a[1].makespan, b[1].makespan);
}

TEST(Testbed, SummarizeAggregatesTypes) {
  TestbedOptions opt;
  opt.repetitions = 3;
  opt.noise = false;
  Testbed tb(System::Summit, opt);
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto results = tb.run_repetitions(w, cfg);
  const MeasuredStats stats = Testbed::summarize(results);
  EXPECT_TRUE(stats.duration_by_type.count("resample"));
  EXPECT_TRUE(stats.duration_by_type.count("combine"));
  EXPECT_GT(stats.duration_by_type.at("resample").mean, 0.0);
  EXPECT_GT(stats.lambda_by_type.at("resample"), 0.0);
  EXPECT_LT(stats.lambda_by_type.at("resample"), 1.0);
}

TEST(Testbed, ObservationsFeedCalibration) {
  TestbedOptions opt;
  opt.repetitions = 2;
  opt.noise = false;
  Testbed tb(System::CoriPrivate, opt);
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_pfs_policy();
  const auto obs = Testbed::observations(tb.run_repetitions(w, cfg));
  ASSERT_TRUE(obs.count("resample"));
  ASSERT_TRUE(obs.count("combine"));
  EXPECT_FALSE(obs.count("stage_in"));  // not a compute task
  EXPECT_EQ(obs.at("resample").observed_cores, 32);
  EXPECT_GT(obs.at("resample").observed_time, 0.0);
  EXPECT_GT(obs.at("resample").lambda_io, 0.0);
  EXPECT_DOUBLE_EQ(obs.at("resample").alpha, 0.0);  // paper's Eq (4)
}

TEST(Testbed, StripedSlowerThanPrivateForSwarp) {
  // The headline qualitative result of paper Figure 5: the striped mode is
  // pathological for SWarp's 1:N small-file pattern.
  TestbedOptions opt;
  opt.repetitions = 3;
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto priv = Testbed::summarize(
      Testbed(System::CoriPrivate, opt).run_repetitions(w, cfg));
  const auto striped = Testbed::summarize(
      Testbed(System::CoriStriped, opt).run_repetitions(w, cfg));
  EXPECT_GT(striped.makespan.mean, priv.makespan.mean * 1.5);
}

TEST(Testbed, SummitFastestAndMostStable) {
  TestbedOptions opt;
  opt.repetitions = 5;
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto summit = Testbed::summarize(
      Testbed(System::Summit, opt).run_repetitions(w, cfg));
  const auto striped = Testbed::summarize(
      Testbed(System::CoriStriped, opt).run_repetitions(w, cfg));
  EXPECT_LT(summit.makespan.mean, striped.makespan.mean);
  EXPECT_LT(summit.makespan.cv(), striped.makespan.cv());
}

TEST(Testbed, StripedAnomalyRaisesStageInAt75) {
  TestbedOptions opt;
  opt.repetitions = 3;
  Testbed tb(System::CoriStriped, opt);
  const wf::Workflow w = wf::make_swarp({});
  exec::ExecutionConfig cfg;
  cfg.placement = std::make_shared<exec::FractionPolicy>(0.75, exec::Tier::BurstBuffer);
  const auto with_anomaly = Testbed::summarize(tb.run_repetitions(w, cfg));
  TestbedOptions opt2 = opt;
  opt2.striped_anomaly = false;
  const auto without = Testbed::summarize(
      Testbed(System::CoriStriped, opt2).run_repetitions(w, cfg));
  EXPECT_GT(with_anomaly.stage_in.mean, without.stage_in.mean);
}

TEST(Testbed, InvalidOptionsRejected) {
  TestbedOptions opt;
  opt.repetitions = 0;
  EXPECT_THROW(Testbed(System::Summit, opt), util::ConfigError);
}

}  // namespace
}  // namespace bbsim::testbed

// --------------------------------------------------------- characterization

#include "testbed/characterize.hpp"

namespace bbsim::testbed {
namespace {

std::vector<exec::Result> sample_results() {
  TestbedOptions opt;
  opt.repetitions = 2;
  opt.noise = false;
  Testbed tb(System::CoriPrivate, opt);
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  return tb.run_repetitions(wf::make_swarp({}), cfg);
}

TEST(Characterize, TableHasRowPerType) {
  const auto table = characterization_table(sample_results());
  EXPECT_EQ(table.row_count(), 3u);  // stage_in, resample, combine
  const std::string text = table.to_string();
  EXPECT_NE(text.find("resample"), std::string::npos);
  EXPECT_NE(text.find("lambda_io"), std::string::npos);
}

TEST(Characterize, StorageTableListsServices) {
  const std::string text = storage_table(sample_results()).to_string();
  EXPECT_NE(text.find("pfs"), std::string::npos);
  EXPECT_NE(text.find("bb"), std::string::npos);
}

TEST(Characterize, ReportCombinesBoth) {
  const std::string report = characterization_report(sample_results());
  EXPECT_NE(report.find("per task type"), std::string::npos);
  EXPECT_NE(report.find("per storage service"), std::string::npos);
}

TEST(Characterize, EmptyInputRejected) {
  EXPECT_THROW(characterization_table({}), util::InvariantError);
  EXPECT_THROW(storage_table({}), util::InvariantError);
}

}  // namespace
}  // namespace bbsim::testbed
