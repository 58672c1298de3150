// Batch-scheduler throughput and policy-quality benchmark.
//
// Generates a deterministic synthetic job stream under heavy burst-buffer
// contention, runs every scheduling policy over it, and writes
// BENCH_batch.json (schema bbsim.bench.v1, bench "batch"). Two kinds of
// numbers:
//
//   - jobs_per_second / seconds: wall-clock throughput. Hardware-sensitive;
//     gated only against a same-machine baseline.
//   - bsld_mean per policy, fcfs_over_easy_slowdown, schedule_hash:
//     hardware-INSENSITIVE. The slowdown ratio encodes "EASY beats FCFS
//     under BB contention" (must stay >= 1); the FNV-1a hash over every
//     (job id, start time) pair pins the schedules bit-for-bit, so any
//     change to scheduler behaviour shows up as a hash mismatch in CI.
//   - profile_segments_scanned per policy: the exact work count of the
//     availability profile, so a change to how much of it conservative and
//     plan-based backfilling scan shows up in CI, independent of hardware.
//
// Usage: bench_batch [--tiers 500,2k] [--out FILE]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "batch/generator.hpp"
#include "batch/report.hpp"
#include "batch/scheduler.hpp"
#include "bench_common.hpp"
#include "json/json.hpp"

namespace {

using namespace bbsim;
using bench::Clock;
using bench::seconds_since;

struct Tier {
  std::string label;
  std::size_t jobs;
};

// FNV-1a over raw bytes; the stream of (id, start-bit-pattern) pairs is a
// stable fingerprint of one policy's whole schedule.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t schedule_hash(const batch::FleetResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const batch::JobOutcome& job : result.jobs) {
    const std::uint64_t id = job.id;
    std::uint64_t start_bits = 0;
    static_assert(sizeof(start_bits) == sizeof(job.start));
    std::memcpy(&start_bits, &job.start, sizeof(start_bits));
    hash = fnv1a(hash, &id, sizeof(id));
    hash = fnv1a(hash, &start_bits, sizeof(start_bits));
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// A contended regime: offered load past capacity, a quarter of the jobs
// hogging most of the BB pool. This is where the policies separate.
batch::StreamConfig tier_config(const Tier& tier) {
  batch::StreamConfig config;
  config.name = "bench-" + tier.label;
  config.job_count = tier.jobs;
  config.machine_nodes = 32;
  config.machine_bb_bytes = 6.4e12;
  config.load = 1.15;
  config.max_job_nodes = 16;
  config.estimate_factor = 3.0;
  config.bb_hog_fraction = 0.25;
  config.bb_hog_share = 0.6;
  config.seed = 20260809;
  return config;
}

json::Value run_tier(const Tier& tier) {
  const batch::StreamConfig config = tier_config(tier);
  const batch::JobStream stream = batch::make_stream(config);
  batch::MachineSpec machine;
  machine.nodes = config.machine_nodes;
  machine.bb_bytes = config.machine_bb_bytes;

  std::printf("tier %s: %zu jobs on %d nodes, %.1f TB BB, load %.2f\n",
              tier.label.c_str(), stream.jobs.size(), machine.nodes,
              machine.bb_bytes / 1e12, config.load);

  json::Object policies;
  double total_seconds = 0.0;
  double fcfs_bsld = 0.0, easy_bsld = 0.0;
  std::uint64_t combined = 1469598103934665603ULL;
  for (const batch::Policy policy : batch::kAllPolicies) {
    batch::SchedulerConfig sched;
    sched.policy = policy;
    const Clock::time_point t0 = Clock::now();
    const batch::FleetResult result = run_scheduler(machine, stream, sched);
    const double elapsed = seconds_since(t0);
    total_seconds += elapsed;

    const batch::FleetSummary summary =
        batch::summarize(result, machine, sched.tau);
    const std::uint64_t hash = schedule_hash(result);
    combined = fnv1a(combined, &hash, sizeof(hash));
    if (policy == batch::Policy::Fcfs) fcfs_bsld = summary.bsld_mean;
    if (policy == batch::Policy::Easy) easy_bsld = summary.bsld_mean;

    std::printf("   %-12s %8.3fs  bsld %8.3f  util %.3f  bb.util %.3f  "
                "backfills %zu  hash %s\n",
                batch::to_string(policy), elapsed, summary.bsld_mean,
                summary.node_utilization, summary.bb_utilization,
                summary.backfilled_jobs, hex64(hash).c_str());

    json::Object entry;
    entry.set("seconds", elapsed);
    entry.set("jobs_per_second",
              static_cast<double>(stream.jobs.size()) / elapsed);
    entry.set("bsld_mean", summary.bsld_mean);
    entry.set("wait_mean", summary.wait_mean);
    entry.set("node_utilization", summary.node_utilization);
    entry.set("bb_utilization", summary.bb_utilization);
    entry.set("backfilled_jobs",
              static_cast<double>(summary.backfilled_jobs));
    entry.set("schedule_hash", hex64(hash));
    entry.set("profile_segments_scanned",
              static_cast<double>(result.profile_segments_scanned));
    policies.set(batch::to_string(policy), json::Value(std::move(entry)));
  }

  const double ratio = easy_bsld > 0.0 ? fcfs_bsld / easy_bsld : 0.0;
  const double jobs_per_second =
      static_cast<double>(stream.jobs.size() * 4) / total_seconds;
  std::printf("   fcfs/easy slowdown ratio %.2fx, %.0f scheduled jobs/s\n",
              ratio, jobs_per_second);

  json::Object out;
  out.set("tier", tier.label);
  out.set("jobs", static_cast<double>(stream.jobs.size()));
  out.set("nodes", static_cast<double>(machine.nodes));
  out.set("bb_bytes", machine.bb_bytes);
  out.set("load", config.load);
  out.set("seed", static_cast<double>(config.seed));
  out.set("seconds", total_seconds);
  out.set("jobs_per_second", jobs_per_second);
  out.set("fcfs_over_easy_slowdown", ratio);
  out.set("schedule_hash", hex64(combined));
  out.set("policies", json::Value(std::move(policies)));
  return json::Value(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_bench(argc, argv, "batch",
                          std::vector<Tier>{{"500", 500}, {"2k", 2000}}, "500,2k",
                          run_tier);
}
