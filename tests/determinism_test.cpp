// Determinism regression tests: an identical seed + spec must serialize
// byte-identical bbsim.run.v1 / bbsim.sweep.v1 reports across --jobs
// 1/2/4 and across audit ON/OFF (audit-only fields stripped before the
// byte compare -- the audit must observe, never perturb). Runs with
// --faults/--checkpoint armed must be just as reproducible: identical
// bbsim.resil.v1 sections and FNV-1a schedule hashes across repeated
// runs and across --jobs 1 vs 8 sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "cli/sweep_cli.hpp"
#include "json/json.hpp"
#include "sweep/spec.hpp"

namespace bbsim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deep-copies `v` with every audit-only key removed, at any depth. The
/// json::Object API has no erase, so filtered copies are rebuilt.
json::Value strip_audit_fields(const json::Value& v) {
  if (v.is_object()) {
    json::Object out;
    for (const auto& [key, value] : v.as_object()) {
      if (key == "audit" || key == "audit_violations") continue;
      out.set(key, strip_audit_fields(value));
    }
    return json::Value(std::move(out));
  }
  if (v.is_array()) {
    json::Array out;
    out.reserve(v.as_array().size());
    for (const auto& element : v.as_array()) {
      out.push_back(strip_audit_fields(element));
    }
    return json::Value(std::move(out));
  }
  return v;
}

sweep::SweepSpec determinism_spec() {
  return sweep::parse_sweep_spec(json::parse(R"({
    "name": "determinism",
    "base": {"workflow": "swarp", "testbed": "cori-private", "seed": 7},
    "axes": {"pipelines": [1, 2], "policy": ["all_pfs", "all_bb"]},
    "repetitions": 2
  })"));
}

std::string sweep_report_dump(int jobs, bool audit) {
  cli::SweepCliOptions opt;
  opt.jobs = jobs;
  opt.quiet = true;
  opt.audit = audit;
  return cli::run_sweep_to_json(determinism_spec(), opt).dump(2);
}

TEST(Determinism, SweepReportByteIdenticalAcrossJobs) {
  const std::string serial = sweep_report_dump(/*jobs=*/1, /*audit=*/false);
  EXPECT_NE(serial.find("\"schema\": \"bbsim.sweep.v1\""), std::string::npos);
  EXPECT_NE(serial.find("\"ok\": true"), std::string::npos);
  for (const int jobs : {2, 4}) {
    EXPECT_EQ(sweep_report_dump(jobs, false), serial) << "jobs=" << jobs;
  }
}

TEST(Determinism, SweepReportStableAcrossInvocations) {
  EXPECT_EQ(sweep_report_dump(2, false), sweep_report_dump(2, false));
}

std::string run_report_dump(bool audit) {
  // One file per test: ctest runs the tests of this binary as parallel
  // processes, and two of them call this helper.
  const std::string path =
      ::testing::TempDir() + "/bbsim_determinism_run_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  cli::CliOptions opt;
  opt.quiet = true;
  opt.pipelines = 2;
  opt.trace_path = path;
  opt.audit = audit;
  EXPECT_EQ(cli::run_cli(opt), 0);
  // Reserialize through the parser so the comparison is formatting-stable.
  const std::string report = json::parse(slurp(path)).dump(2);
  std::remove(path.c_str());
  return report;
}

TEST(Determinism, RunReportByteIdenticalAcrossInvocations) {
  const std::string first = run_report_dump(false);
  EXPECT_NE(first.find("\"schema\": \"bbsim.run.v1\""), std::string::npos);
  EXPECT_EQ(run_report_dump(false), first);
}

// ------------------------------------------------------------------ resil

/// The fault/checkpoint cocktail the resil determinism tests pin: on
/// swarp/cori-private with 2 pipelines it fires several crashes, kills and
/// checkpoints, so the hashes below cover a genuinely disturbed schedule.
constexpr const char* kFaults = "node_mtbf=40,node_repair=5,seed=9,horizon=400";
constexpr const char* kCheckpoint = "interval=15,fraction=0.1,restart=2";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the serialized per-task records (host, cores, full-precision
/// start/end times): any schedule drift between two runs flips this hash
/// even if headline numbers happen to agree.
std::uint64_t schedule_hash(const json::Value& report) {
  return fnv1a(report.at("tasks").dump());
}

std::string resil_run_report_dump() {
  const std::string path = ::testing::TempDir() + "/bbsim_determinism_resil.json";
  cli::CliOptions opt;
  opt.quiet = true;
  opt.pipelines = 2;
  opt.trace_path = path;
  opt.faults = kFaults;
  opt.checkpoint = kCheckpoint;
  EXPECT_EQ(cli::run_cli(opt), 0);
  const std::string report = json::parse(slurp(path)).dump(2);
  std::remove(path.c_str());
  return report;
}

TEST(Determinism, ResilReportAndScheduleHashStableAcrossRuns) {
  const std::string first = resil_run_report_dump();
  // The run really was disturbed and carries the resil section.
  EXPECT_NE(first.find("\"schema\": \"bbsim.resil.v1\""), std::string::npos);
  EXPECT_NE(first.find("\"node_crashes\""), std::string::npos);
  const std::string second = resil_run_report_dump();
  EXPECT_EQ(second, first);
  EXPECT_EQ(schedule_hash(json::parse(second)),
            schedule_hash(json::parse(first)));
}

sweep::SweepSpec resil_determinism_spec() {
  return sweep::parse_sweep_spec(json::parse(R"({
    "name": "resil-determinism",
    "base": {"workflow": "swarp", "testbed": "cori-private", "pipelines": 2,
             "faults": ")" + std::string(kFaults) + R"(",
             "checkpoint": ")" + std::string(kCheckpoint) + R"("},
    "axes": {"policy": ["all_pfs", "all_bb"],
             "seed": [7, 8]},
    "repetitions": 2
  })"));
}

std::string resil_sweep_dump(int jobs) {
  cli::SweepCliOptions opt;
  opt.jobs = jobs;
  opt.quiet = true;
  return cli::run_sweep_to_json(resil_determinism_spec(), opt).dump(2);
}

TEST(Determinism, ResilSweepByteIdenticalAcrossJobs1And8) {
  const std::string serial = resil_sweep_dump(/*jobs=*/1);
  EXPECT_NE(serial.find("\"schema\": \"bbsim.sweep.v1\""), std::string::npos);
  EXPECT_NE(serial.find("\"ok\": true"), std::string::npos);
  // Fault axes lift resil headline counters into every run record.
  EXPECT_NE(serial.find("\"node_crashes\""), std::string::npos);
  EXPECT_EQ(resil_sweep_dump(/*jobs=*/8), serial);
}

TEST(Determinism, ResilSweepStableAcrossInvocations) {
  EXPECT_EQ(resil_sweep_dump(8), resil_sweep_dump(8));
}

TEST(Determinism, SweepReportUnchangedByAudit) {
  const std::string off = sweep_report_dump(/*jobs=*/2, /*audit=*/false);
  const std::string on = sweep_report_dump(/*jobs=*/2, /*audit=*/true);
  EXPECT_NE(on, off);  // audit fields are present when auditing...
  const std::string off_stripped =
      strip_audit_fields(json::parse(off)).dump(2);
  const std::string on_stripped = strip_audit_fields(json::parse(on)).dump(2);
  EXPECT_EQ(on_stripped, off_stripped);  // ...and are the ONLY difference
  EXPECT_EQ(off_stripped, off);  // stripping a no-audit report is a no-op
}

TEST(Determinism, RunReportUnchangedByAudit) {
  const std::string off = run_report_dump(false);
  const std::string on = run_report_dump(true);
  const std::string off_stripped =
      strip_audit_fields(json::parse(off)).dump(2);
  const std::string on_stripped = strip_audit_fields(json::parse(on)).dump(2);
  EXPECT_EQ(on_stripped, off_stripped);
  EXPECT_EQ(off_stripped, off);
}

}  // namespace
}  // namespace bbsim
