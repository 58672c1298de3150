// Tests for the multi-tenant batch layer: the bbsim.jobs.v1 stream model,
// the synthetic generator, the two-resource scheduler policies (golden
// schedules + the backfilling soundness property), payload resolution,
// fleet accounting, the bbsim.batch.v1 report and the bbsim_batch CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "batch/generator.hpp"
#include "batch/job.hpp"
#include "batch/payload.hpp"
#include "batch/profile.hpp"
#include "batch/report.hpp"
#include "batch/scheduler.hpp"
#include "cli/batch_cli.hpp"
#include "resil/fault.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bbsim {
namespace {

using batch::FleetResult;
using batch::Job;
using batch::JobStream;
using batch::MachineSpec;
using batch::Policy;
using batch::SchedulerConfig;
using util::ConfigError;

// ---------------------------------------------------------------- helpers

Job make_job(std::size_t id, double submit, int nodes, double estimate,
             double actual, double bb) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = nodes;
  j.walltime_estimate = estimate;
  j.walltime_actual = actual;
  j.bb_bytes = bb;
  return j;
}

/// Machine of 4 nodes + 100 B of burst buffer; three jobs submitted at
/// t = 0 whose schedule separates every policy:
///   j0: 2 nodes, 60 BB, runs [0, 100) everywhere
///   j1: 4 nodes, 60 BB -- must wait for the whole machine (shadow = 100)
///   j2: 2 nodes,  0 BB, 50 s -- backfillable beside j0, but FCFS holds it
///       behind j1
MachineSpec tiny_machine() {
  MachineSpec m;
  m.nodes = 4;
  m.bb_bytes = 100.0;
  return m;
}

JobStream tiny_stream() {
  JobStream s;
  s.name = "tiny";
  s.jobs = {make_job(0, 0.0, 2, 100.0, 100.0, 60.0),
            make_job(1, 0.0, 4, 100.0, 100.0, 60.0),
            make_job(2, 0.0, 2, 50.0, 50.0, 0.0)};
  return s;
}

FleetResult run_tiny(Policy policy, SchedulerConfig cfg = {}) {
  JobStream s = tiny_stream();
  batch::validate_stream(s);
  cfg.policy = policy;
  return batch::run_scheduler(tiny_machine(), s, cfg);
}

/// High-BB-contention synthetic stream with the given estimate regime.
batch::StreamConfig contended_config(double estimate_factor) {
  batch::StreamConfig cfg;
  cfg.job_count = 200;
  cfg.machine_nodes = 16;
  cfg.machine_bb_bytes = 1e12;
  cfg.load = 1.2;
  cfg.max_job_nodes = 8;
  cfg.bb_hog_fraction = 0.25;
  cfg.bb_hog_share = 0.6;
  cfg.estimate_factor = estimate_factor;
  cfg.seed = 11;
  return cfg;
}

// --------------------------------------------------------------- job model

TEST(BatchJob, PolicyNamesRoundTrip) {
  for (const Policy p : batch::kAllPolicies) {
    EXPECT_EQ(batch::policy_from_string(batch::to_string(p)), p);
  }
  EXPECT_EQ(batch::policy_from_string("plan_based"), Policy::PlanBased);
  EXPECT_THROW(batch::policy_from_string("lifo"), ConfigError);
}

TEST(BatchJob, BbAllocRoundsUpToWholeGranules) {
  MachineSpec m;
  m.bb_granule = 20.0;
  EXPECT_DOUBLE_EQ(m.bb_alloc(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.bb_alloc(1.0), 20.0);
  EXPECT_DOUBLE_EQ(m.bb_alloc(20.0), 20.0);  // exact multiple: no waste
  EXPECT_DOUBLE_EQ(m.bb_alloc(20.5), 40.0);
  m.bb_granule = 0.0;  // byte-granular pool
  EXPECT_DOUBLE_EQ(m.bb_alloc(13.0), 13.0);
}

TEST(BatchJob, StreamJsonRoundTrips) {
  JobStream s;
  s.name = "roundtrip";
  s.seed = 99;
  s.jobs = {make_job(0, 0.0, 2, 100.0, 80.0, 5e9),
            make_job(1, 3.5, 1, 60.0, 0.0, 0.0)};
  s.jobs[1].payload.kind = batch::PayloadKind::FanOut;
  s.jobs[1].payload.tasks = 12;
  s.jobs[1].payload.width = 3;
  batch::validate_stream(s);

  const json::Value doc = batch::stream_to_json(s);
  EXPECT_EQ(doc.get_string("schema", ""), "bbsim.jobs.v1");
  JobStream back = batch::stream_from_json(doc);
  EXPECT_EQ(back.name, "roundtrip");
  EXPECT_EQ(back.seed, 99u);
  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_EQ(back.jobs[1].payload.kind, batch::PayloadKind::FanOut);
  EXPECT_EQ(back.jobs[1].payload.tasks, 12u);
  // Byte-identical re-serialisation: the format is a stable golden surface.
  EXPECT_EQ(batch::stream_to_json(back).dump(2), doc.dump(2));
}

TEST(BatchJob, ValidateStreamRejectsBrokenJobs) {
  {
    JobStream s;
    s.jobs = {make_job(0, 0, 1, 10, 10, 0), make_job(0, 1, 1, 10, 10, 0)};
    EXPECT_THROW(batch::validate_stream(s), ConfigError);  // duplicate id
  }
  {
    JobStream s;
    s.jobs = {make_job(0, 0, 0, 10, 10, 0)};
    EXPECT_THROW(batch::validate_stream(s), ConfigError);  // zero nodes
  }
  {
    JobStream s;
    s.jobs = {make_job(0, 0, 1, 0, 10, 0)};
    EXPECT_THROW(batch::validate_stream(s), ConfigError);  // no estimate
  }
  {
    JobStream s;  // no actual runtime and no payload to derive it from
    s.jobs = {make_job(0, 0, 1, 10, 0, 0)};
    EXPECT_THROW(batch::validate_stream(s), ConfigError);
  }
  {
    JobStream s;  // wider than the machine: could never start
    s.jobs = {make_job(0, 0, 8, 10, 10, 0)};
    EXPECT_THROW(batch::validate_stream(s, /*machine_nodes=*/4), ConfigError);
  }
  {
    JobStream s;  // more BB than the machine owns
    s.jobs = {make_job(0, 0, 1, 10, 10, 200.0)};
    EXPECT_THROW(batch::validate_stream(s, 4, /*machine_bb_bytes=*/100.0),
                 ConfigError);
  }
  // NaN or infinity in any time or size field.
  for (double Job::*field :
       {&Job::submit, &Job::walltime_estimate, &Job::walltime_actual, &Job::bb_bytes}) {
    for (const double bad : {std::nan(""), batch::kInf}) {
      JobStream s;
      s.jobs = {make_job(0, 0, 1, 10, 10, 0)};
      s.jobs[0].*field = bad;
      EXPECT_THROW(batch::validate_stream(s), ConfigError) << bad;
    }
  }
}

TEST(BatchJob, ValidateStreamSortsBySubmitThenId) {
  JobStream s;
  s.jobs = {make_job(2, 5.0, 1, 10, 10, 0), make_job(1, 5.0, 1, 10, 10, 0),
            make_job(0, 9.0, 1, 10, 10, 0)};
  batch::validate_stream(s);
  EXPECT_EQ(s.jobs[0].id, 1u);
  EXPECT_EQ(s.jobs[1].id, 2u);
  EXPECT_EQ(s.jobs[2].id, 0u);
  EXPECT_EQ(s.jobs[0].name, "job1");  // defaulted display name
}

// --------------------------------------------------------------- generator

TEST(BatchGenerator, IsDeterministic) {
  const batch::StreamConfig cfg = contended_config(3.0);
  const JobStream a = batch::make_stream(cfg);
  const JobStream b = batch::make_stream(cfg);
  EXPECT_EQ(batch::stream_to_json(a).dump(), batch::stream_to_json(b).dump());
  EXPECT_EQ(a.jobs.size(), cfg.job_count);
}

TEST(BatchGenerator, TargetsTheOfferedLoad) {
  batch::StreamConfig cfg;
  cfg.job_count = 400;
  cfg.machine_nodes = 32;
  cfg.load = 0.8;
  cfg.seed = 5;
  const JobStream s = batch::make_stream(cfg);
  double node_seconds = 0.0, last_submit = 0.0;
  for (const Job& j : s.jobs) {
    node_seconds += j.nodes * j.walltime_actual;
    last_submit = std::max(last_submit, j.submit);
    EXPECT_GE(j.walltime_estimate, j.walltime_actual);  // overshoot only
    EXPECT_LE(j.nodes, cfg.max_job_nodes);
  }
  ASSERT_GT(last_submit, 0.0);
  const double offered = node_seconds / (cfg.machine_nodes * last_submit);
  EXPECT_GT(offered, 0.8 * 0.7);  // within ~30% of the target...
  EXPECT_LT(offered, 0.8 * 1.4);  // ...for a 400-job Poisson stream
}

TEST(BatchGenerator, WeibullArrivalsDifferFromPoisson) {
  batch::StreamConfig cfg = contended_config(3.0);
  const JobStream poisson = batch::make_stream(cfg);
  cfg.arrivals = batch::ArrivalProcess::Weibull;
  const JobStream weibull = batch::make_stream(cfg);
  EXPECT_NE(batch::stream_to_json(poisson).dump(),
            batch::stream_to_json(weibull).dump());
}

TEST(BatchGenerator, RejectsNonsense) {
  batch::StreamConfig cfg;
  cfg.job_count = 0;
  EXPECT_THROW(batch::make_stream(cfg), ConfigError);
  cfg = batch::StreamConfig{};
  cfg.load = 0.0;
  EXPECT_THROW(batch::make_stream(cfg), ConfigError);
  cfg.load = std::nan("");
  EXPECT_THROW(batch::make_stream(cfg), ConfigError);
  cfg.load = batch::kInf;
  EXPECT_THROW(batch::make_stream(cfg), ConfigError);
  // A bad Weibull shape is bad input, not a broken invariant.
  cfg = batch::StreamConfig{};
  cfg.arrivals = batch::ArrivalProcess::Weibull;
  for (const double shape : {0.0, -1.0}) {
    cfg.weibull_shape = shape;
    EXPECT_THROW(batch::make_stream(cfg), ConfigError) << shape;
  }
  // Estimates that overflow to infinity are rejected before any policy runs.
  cfg = batch::StreamConfig{};
  cfg.estimate_factor = 1e308;
  EXPECT_THROW(batch::make_stream(cfg), ConfigError);
}

// --------------------------------------------------- golden schedules

TEST(BatchScheduler, GoldenFcfsHoldsEveryoneBehindTheHead) {
  const FleetResult r = run_tiny(Policy::Fcfs);
  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(r.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 200.0);  // never skips ahead
  EXPECT_DOUBLE_EQ(r.makespan, 250.0);
  EXPECT_EQ(r.backfilled_jobs, 0u);
}

TEST(BatchScheduler, GoldenEasyBackfillsBesideTheShadow) {
  const FleetResult r = run_tiny(Policy::Easy);
  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(r.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);  // exactly its shadow promise
  EXPECT_DOUBLE_EQ(r.jobs[1].reserved_start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 0.0);  // backfilled: ends before shadow
  EXPECT_TRUE(r.jobs[2].backfilled);
  EXPECT_DOUBLE_EQ(r.makespan, 200.0);
  EXPECT_EQ(r.backfilled_jobs, 1u);
}

TEST(BatchScheduler, GoldenConservativeReservesEveryQueuedJob) {
  const FleetResult r = run_tiny(Policy::Conservative);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].reserved_start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 200.0);
}

TEST(BatchScheduler, GoldenPlanMatchesTheObviousOptimum) {
  const FleetResult r = run_tiny(Policy::PlanBased);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 200.0);
}

TEST(BatchScheduler, KillAtEstimateCapsTheRuntime) {
  JobStream s;
  s.jobs = {make_job(0, 0.0, 1, 50.0, 100.0, 0.0)};  // lies about its length
  batch::validate_stream(s);
  SchedulerConfig cfg;
  cfg.policy = Policy::Fcfs;
  const FleetResult r = batch::run_scheduler(tiny_machine(), s, cfg);
  EXPECT_DOUBLE_EQ(r.jobs[0].runtime, 50.0);  // min(actual, estimate)
  EXPECT_DOUBLE_EQ(r.jobs[0].end, 50.0);
  EXPECT_TRUE(r.jobs[0].killed);
  EXPECT_EQ(r.killed_jobs, 1u);
}

TEST(BatchScheduler, BbBlockedFractionCountsBbOnlyStalls) {
  // j1 always fits on nodes; only the BB dimension holds it back.
  JobStream s;
  s.jobs = {make_job(0, 0.0, 1, 100.0, 100.0, 80.0),
            make_job(1, 0.0, 1, 100.0, 100.0, 50.0)};
  batch::validate_stream(s);
  SchedulerConfig cfg;
  cfg.policy = Policy::Fcfs;
  const FleetResult r = batch::run_scheduler(tiny_machine(), s, cfg);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_DOUBLE_EQ(r.bb_blocked_seconds, 100.0);
  EXPECT_DOUBLE_EQ(r.bb_blocked_fraction(), 0.5);  // 100 s of a 200 s run
}

TEST(BatchScheduler, UtilizationAndFragmentationAccounting) {
  MachineSpec m = tiny_machine();
  m.bb_granule = 25.0;  // 60 B requests round up to 75 B allocations
  JobStream s;
  s.jobs = {make_job(0, 0.0, 2, 100.0, 100.0, 60.0)};
  batch::validate_stream(s);
  SchedulerConfig cfg;
  cfg.policy = Policy::Fcfs;
  const FleetResult r = batch::run_scheduler(m, s, cfg);
  EXPECT_DOUBLE_EQ(r.jobs[0].bb_alloc, 75.0);
  EXPECT_DOUBLE_EQ(r.node_utilization(m), 0.5);       // 2 of 4 nodes busy
  EXPECT_DOUBLE_EQ(r.bb_utilization(m), 0.75);        // 75 of 100 B held
  EXPECT_DOUBLE_EQ(r.bb_internal_fragmentation(), 15.0 / 75.0);
}

// --------------------------------------------- properties and regressions

TEST(BatchScheduler, BackfillingNeverDelaysAReservationWithExactEstimates) {
  // With exact estimates the shadow/profile promises are exact: no job may
  // ever start later than the reservation it was given. This is the
  // soundness property of both EASY and conservative backfilling.
  const JobStream s = batch::make_stream(contended_config(/*exact*/ 1.0));
  for (const Policy policy : {Policy::Easy, Policy::Conservative}) {
    SchedulerConfig cfg;
    cfg.policy = policy;
    const FleetResult r = batch::run_scheduler(
        MachineSpec{16, 1e12, 0.0}, s, cfg);
    std::size_t promised = 0;
    for (const batch::JobOutcome& j : r.jobs) {
      if (j.reserved_start < 0) continue;
      ++promised;
      EXPECT_LE(j.start, j.reserved_start + 1e-6)
          << batch::to_string(policy) << " delayed job " << j.id;
    }
    EXPECT_GT(promised, 0u);  // the scenario actually exercised promises
  }
}

TEST(BatchScheduler, EasyBeatsFcfsUnderBbContention) {
  // The checked-in regression scenario of docs/batch.md: heavy BB hogs at
  // load 1.2. Backfilling must pay off on mean bounded slowdown.
  const JobStream s = batch::make_stream(contended_config(3.0));
  const MachineSpec m{16, 1e12, 0.0};
  SchedulerConfig cfg;
  cfg.policy = Policy::Fcfs;
  const batch::FleetSummary fcfs =
      batch::summarize(batch::run_scheduler(m, s, cfg), m, cfg.tau);
  cfg.policy = Policy::Easy;
  const batch::FleetSummary easy =
      batch::summarize(batch::run_scheduler(m, s, cfg), m, cfg.tau);
  EXPECT_LT(easy.bsld_mean, fcfs.bsld_mean);
  EXPECT_GT(easy.backfilled_jobs, 0u);
}

TEST(BatchScheduler, AuditCleanEndToEndWithContention) {
  batch::StreamConfig gen = contended_config(3.0);
  gen.job_count = 150;
  const JobStream s = batch::make_stream(gen);
  MachineSpec m{16, 1e12, 20e9};
  for (const Policy policy : batch::kAllPolicies) {
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.audit = true;
    const FleetResult r = batch::run_scheduler(m, s, cfg);
    EXPECT_EQ(r.audit_violations, 0u) << batch::to_string(policy);
    EXPECT_FALSE(r.audit.is_null());
    EXPECT_TRUE(r.audit.get_bool("clean", false)) << batch::to_string(policy);
    ASSERT_EQ(r.jobs.size(), s.jobs.size());
    for (const batch::JobOutcome& j : r.jobs) {
      EXPECT_GE(j.start, j.submit);
      EXPECT_DOUBLE_EQ(j.end, j.start + j.runtime);
    }
  }
}

TEST(BatchScheduler, IsDeterministicAcrossRuns) {
  const JobStream s = batch::make_stream(contended_config(3.0));
  const MachineSpec m{16, 1e12, 0.0};
  SchedulerConfig cfg;
  cfg.policy = Policy::Easy;
  const json::Value a =
      batch::batch_report(s, m, cfg.tau, {batch::run_scheduler(m, s, cfg)});
  const json::Value b =
      batch::batch_report(s, m, cfg.tau, {batch::run_scheduler(m, s, cfg)});
  EXPECT_EQ(a.dump(2), b.dump(2));
}

// ------------------------------------------------ profile and schedule referees

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// The availability profile as first written: a backward linear scan for
/// the segment at t and one restart per segment that cannot hold the
/// request. Kept verbatim as the referee of batch::Profile.
class LinearScanProfile {
 public:
  LinearScanProfile(double t0, int nodes, double bb)
      : bb_eps_(std::max(batch::kEps, bb * 1e-12)),
        times_{t0},
        free_nodes_{nodes},
        free_bb_{bb} {}

  double earliest_start(double t_min, double duration, int nodes, double bb) const {
    double t = std::max(t_min, times_.front());
    std::size_t i = segment_at(t);
    for (;;) {
      const double end = t + duration;
      std::size_t j = i;
      bool ok = true;
      for (;;) {
        if (free_nodes_[j] < nodes || free_bb_[j] < bb - bb_eps_) {
          ok = false;
          break;
        }
        if (j + 1 >= times_.size() || times_[j + 1] >= end - batch::kEps) break;
        ++j;
      }
      if (ok) return t;
      if (j + 1 >= times_.size()) return batch::kInf;
      t = times_[j + 1];
      i = j + 1;
    }
  }

  void commit(double start, double duration, int nodes, double bb) {
    if (duration <= 0) return;
    const std::size_t first = split_at(start);
    const std::size_t last = split_at(start + duration);
    for (std::size_t i = first; i < last; ++i) {
      free_nodes_[i] -= nodes;
      free_bb_[i] -= bb;
    }
  }

 private:
  std::size_t segment_at(double t) const {
    std::size_t i = times_.size();
    while (i > 0 && times_[i - 1] > t + batch::kEps) --i;
    return i > 0 ? i - 1 : 0;
  }

  std::size_t split_at(double t) {
    const std::size_t i = segment_at(t);
    if (std::abs(times_[i] - t) <= batch::kEps) return i;
    times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(i) + 1, t);
    free_nodes_.insert(free_nodes_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       free_nodes_[i]);
    free_bb_.insert(free_bb_.begin() + static_cast<std::ptrdiff_t>(i) + 1, free_bb_[i]);
    return i + 1;
  }

  double bb_eps_;
  std::vector<double> times_;
  std::vector<int> free_nodes_;
  std::vector<double> free_bb_;
};

TEST(BatchProfile, MatchesLinearScanReference) {
  // Seeded random sequences of placements, bare commits and probes, run
  // against batch::Profile and the linear-scan referee. The sequences put
  // breakpoints 0.5-2 x kEps apart and probe from just before and after
  // them, ask for zero BB and for the whole pool, run near t = 1e7 s (where
  // kEps is about one ulp) and use windows longer than the whole profile.
  // Every start must agree bit for bit. Near 1e7 s the sequences also
  // leave breakpoints out of order (Profile's invariant names the case),
  // where a bare binary search would answer differently.
  const double kEps = batch::kEps;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    const double t0 = seed % 3 == 0 ? 1e7 + rng.uniform(0.0, 100.0) : rng.uniform(0.0, 1e3);
    const int nodes = static_cast<int>(rng.uniform_int(1, 64));
    const double pool = seed % 4 == 0 ? 100.0 : 6.4e12;
    batch::Profile fast(t0, nodes, pool);
    LinearScanProfile ref(t0, nodes, pool);
    std::vector<double> anchors{t0};  // instants at or near breakpoints
    double horizon = t0;              // the last window end so far
    const auto near_anchor = [&] {
      const double a = anchors[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(anchors.size()) - 1))];
      const double d = rng.uniform(0.5, 2.0) * kEps;
      return std::max(t0, rng.chance(0.5) ? a - d : a + d);
    };
    for (int step = 0; step < 300; ++step) {
      const double kind = rng.uniform(0.0, 1.0);
      int want_nodes = static_cast<int>(rng.uniform_int(0, nodes));
      if (rng.chance(0.1)) want_nodes = nodes;
      double want_bb = rng.uniform(0.0, pool);
      if (rng.chance(0.25)) want_bb = 0.0;
      if (rng.chance(0.1)) want_bb = pool;
      double duration = rng.uniform(1.0, 5e3);
      if (rng.chance(0.1)) duration = rng.uniform(0.5, 2.0) * kEps;
      if (rng.chance(0.1)) duration = 2.0 * (horizon - t0) + 1.0;  // past the end
      if (kind < 0.2) {
        // A bare commit next to a breakpoint: splits 0.5-2 x kEps away.
        const double start = near_anchor();
        const int n = static_cast<int>(rng.uniform_int(0, 1));
        const double bb = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, pool * 0.01);
        fast.commit(start, duration, n, bb);
        ref.commit(start, duration, n, bb);
        anchors.push_back(start);
        anchors.push_back(start + duration);
        horizon = std::max(horizon, start + duration);
        continue;
      }
      const double t_min = kind < 0.5 ? near_anchor() : t0;
      const double got = fast.earliest_start(t_min, duration, want_nodes, want_bb);
      const double want = ref.earliest_start(t_min, duration, want_nodes, want_bb);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << " step " << step << ": " << got << " vs " << want;
      if (kind < 0.8 && std::isfinite(want)) {
        fast.commit(want, duration, want_nodes, want_bb);
        ref.commit(want, duration, want_nodes, want_bb);
        anchors.push_back(want);
        anchors.push_back(want + duration);
        horizon = std::max(horizon, want + duration);
      }
    }
    // A request larger than the machine never fits.
    EXPECT_EQ(fast.earliest_start(t0, 1.0, nodes + 1, 0.0), batch::kInf);
  }
}

TEST(BatchScheduler, SchedulesArePinned) {
  // Each policy's FNV-1a over (id, start bits, reserved_start bits,
  // backfilled) of every job, folded over 3 stream seeds x granule {0,
  // 20 GiB} x estimate factor {1, 3} x node faults {off, on}. Pinned at the
  // linear-scan profile: any change to the profile or the passes must place
  // every job, and promise it its start, bit for bit as before.
  const double kGranule = 20.0 * 1024 * 1024 * 1024;
  std::uint64_t hashes[std::size(batch::kAllPolicies)];
  std::fill(std::begin(hashes), std::end(hashes), 1469598103934665603ULL);
  for (const std::uint64_t seed : {3ULL, 17ULL, 2024ULL}) {
    for (const double factor : {1.0, 3.0}) {
      batch::StreamConfig gen = contended_config(factor);
      gen.job_count = 300;
      gen.machine_bb_bytes = 48 * kGranule;  // whole granules: every job fits
      gen.seed = seed;
      const JobStream s = batch::make_stream(gen);
      for (const double granule : {0.0, kGranule}) {
        for (const bool faults : {false, true}) {
          SchedulerConfig cfg;
          if (faults) {
            cfg.faults = resil::FaultSpec::parse("node_mtbf=20000,node_repair=600,seed=" +
                                                 std::to_string(seed));
          }
          const MachineSpec m{gen.machine_nodes, gen.machine_bb_bytes, granule};
          for (std::size_t p = 0; p < std::size(batch::kAllPolicies); ++p) {
            cfg.policy = batch::kAllPolicies[p];
            const FleetResult r = batch::run_scheduler(m, s, cfg);
            for (const batch::JobOutcome& j : r.jobs) {
              const std::uint64_t id = j.id;
              const auto start = std::bit_cast<std::uint64_t>(j.start);
              const auto reserved = std::bit_cast<std::uint64_t>(j.reserved_start);
              const unsigned char backfilled = j.backfilled ? 1 : 0;
              hashes[p] = fnv1a(hashes[p], &id, sizeof(id));
              hashes[p] = fnv1a(hashes[p], &start, sizeof(start));
              hashes[p] = fnv1a(hashes[p], &reserved, sizeof(reserved));
              hashes[p] = fnv1a(hashes[p], &backfilled, sizeof(backfilled));
            }
          }
        }
      }
    }
  }
  const char* const pinned[] = {"0x55ee8c993621c85f", "0xb63d609e486cc73e",
                                "0x0b83b261f471d727", "0xca85820a2a2dd765"};
  for (std::size_t p = 0; p < std::size(batch::kAllPolicies); ++p) {
    EXPECT_EQ(hex64(hashes[p]), pinned[p]) << batch::to_string(batch::kAllPolicies[p]);
  }
}

// ----------------------------------------------------------------- payload

TEST(BatchPayload, ResolvesMissingRuntimesDeterministically) {
  JobStream s;
  s.seed = 7;
  s.jobs = {make_job(0, 0.0, 2, 10000.0, 0.0, 1e9),
            make_job(1, 1.0, 1, 100.0, 40.0, 0.0)};
  s.jobs[0].payload.kind = batch::PayloadKind::Scale;
  s.jobs[0].payload.tasks = 8;
  s.jobs[0].payload.width = 2;
  batch::validate_stream(s);
  JobStream twin = s;
  EXPECT_EQ(batch::resolve_payloads(s), 1u);
  EXPECT_GT(s.jobs[0].walltime_actual, 0.0);
  EXPECT_DOUBLE_EQ(s.jobs[1].walltime_actual, 40.0);  // explicit: untouched
  batch::resolve_payloads(twin);
  EXPECT_DOUBLE_EQ(twin.jobs[0].walltime_actual, s.jobs[0].walltime_actual);
  // Already resolved: a second pass is a no-op.
  EXPECT_EQ(batch::resolve_payloads(s), 0u);
}

// ---------------------------------------------------------- report + trace

TEST(BatchReport, ComparisonNamesTheBestPolicy) {
  const MachineSpec m = tiny_machine();
  std::vector<FleetResult> runs;
  runs.push_back(run_tiny(Policy::Fcfs));
  runs.push_back(run_tiny(Policy::Easy));
  const json::Value doc =
      batch::batch_report(tiny_stream(), m, 10.0, runs, /*include_jobs=*/true);
  EXPECT_EQ(doc.get_string("schema", ""), "bbsim.batch.v1");
  ASSERT_TRUE(doc.contains("comparison"));
  EXPECT_EQ(doc.at("comparison").get_string("best_policy", ""), "easy");
  const json::Array& rs = doc.at("runs").as_array();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].at("jobs").as_array().size(), 3u);
  // Single-run reports carry no comparison section.
  runs.pop_back();
  EXPECT_FALSE(batch::batch_report(tiny_stream(), m, 10.0, runs)
                   .contains("comparison"));
}

TEST(BatchTrace, TimelineCarriesWaitSpans) {
  SchedulerConfig cfg;
  cfg.collect_timeline = true;
  const FleetResult r = run_tiny(Policy::Fcfs, cfg);
  ASSERT_NE(r.timeline, nullptr);
  const std::string dump = r.timeline->to_perfetto().dump();
  // j2 waited 200 s under FCFS: its lane shows an explicit wait span.
  EXPECT_NE(dump.find("wait job2"), std::string::npos);
  EXPECT_NE(dump.find("job0"), std::string::npos);
}

// --------------------------------------------------------------------- CLI

TEST(BatchCli, RequiresExactlyOneStreamSource) {
  EXPECT_THROW(cli::parse_batch_cli({}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--jobs-file", "a.json", "--gen", "5"}),
               ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "0"}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--policy", "bogus"}),
               ConfigError);
  EXPECT_NO_THROW(cli::parse_batch_cli({"--gen", "5"}));
}

TEST(BatchCli, ParsesSizesArrivalsAndPolicies) {
  const cli::BatchCliOptions opt = cli::parse_batch_cli(
      {"--gen", "50", "--bb-capacity", "2TB", "--bb-granule", "20GiB",
       "--arrival", "weibull:0.4", "--policy", "all", "--load", "1.1"});
  EXPECT_DOUBLE_EQ(opt.bb_capacity, 2e12);
  EXPECT_DOUBLE_EQ(opt.bb_granule, 20.0 * 1024 * 1024 * 1024);
  EXPECT_EQ(cli::resolve_policies(opt.policy).size(), 4u);
  const batch::StreamConfig cfg = cli::stream_config_from(opt);
  EXPECT_EQ(cfg.arrivals, batch::ArrivalProcess::Weibull);
  EXPECT_DOUBLE_EQ(cfg.weibull_shape, 0.4);
  EXPECT_DOUBLE_EQ(cfg.load, 1.1);
  EXPECT_EQ(cfg.job_count, 50u);
  // Malformed numbers are errors, not silently truncated.
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--load", "1.1x"}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--load", "abc"}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--nodes", "abc"}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5x"}), ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--seed", "-1"}), ConfigError);
  EXPECT_THROW(cli::stream_config_from(cli::parse_batch_cli(
                   {"--gen", "5", "--arrival", "weibull:1.5x"})),
               ConfigError);
  // So are NaN and infinity, which std::stod accepts.
  for (const char* flag : {"--load", "--tau", "--estimate-factor"}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", flag, value}), ConfigError)
          << flag << " " << value;
    }
  }
  EXPECT_THROW(cli::stream_config_from(cli::parse_batch_cli(
                   {"--gen", "5", "--arrival", "weibull:nan"})),
               ConfigError);
}

// ------------------------------------------------------------ node outages

TEST(BatchOutage, DisabledFaultsLeaveReportByteIdentical) {
  SchedulerConfig off;
  off.faults = resil::FaultSpec::parse("");
  const FleetResult base = run_tiny(Policy::Easy);
  const FleetResult with = run_tiny(Policy::Easy, off);
  EXPECT_FALSE(base.faults_enabled);
  EXPECT_FALSE(with.faults_enabled);
  const JobStream s = tiny_stream();
  EXPECT_EQ(batch::batch_report(s, tiny_machine(), 10.0, {base}, true).dump(),
            batch::batch_report(s, tiny_machine(), 10.0, {with}, true).dump());
}

TEST(BatchOutage, ArmedButQuiescentProcessKeepsScheduleExact) {
  // horizon ~0 arms the process but schedules no crash: everything must
  // match the faultless run except the (all-zero) outage section.
  SchedulerConfig cfg;
  cfg.faults = resil::FaultSpec::parse("node_mtbf=100,horizon=1e-9");
  const FleetResult base = run_tiny(Policy::Conservative);
  const FleetResult with = run_tiny(Policy::Conservative, cfg);
  EXPECT_TRUE(with.faults_enabled);
  EXPECT_EQ(with.node_outages, 0u);
  EXPECT_EQ(with.resubmitted_jobs, 0u);
  EXPECT_DOUBLE_EQ(with.down_node_seconds, 0.0);
  EXPECT_DOUBLE_EQ(with.makespan, base.makespan);
  ASSERT_EQ(with.jobs.size(), base.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(with.jobs[i].start, base.jobs[i].start);
    EXPECT_DOUBLE_EQ(with.jobs[i].end, base.jobs[i].end);
  }
}

TEST(BatchOutage, CrashKillsYoungestJobAndResubmitsIt) {
  // One node, one 100 s job: any crash while it runs must kill it, hold
  // the node down for node_repair, then rerun the job from scratch. Scan
  // for a seed whose first crash lands mid-run and whose re-armed crash
  // (sampled at the repair) falls past the horizon.
  MachineSpec m;
  m.nodes = 1;
  m.bb_bytes = 0.0;
  const double kRepair = 50.0;
  std::uint64_t seed = 0;
  double g0 = 0.0;
  for (std::uint64_t s = 1; s < 500 && seed == 0; ++s) {
    resil::FaultSpec probe;
    probe.seed = s;
    probe.node_mtbf = 60.0;
    resil::FaultModel model(probe, 1);
    const double a = model.next_node_gap(0);
    const double b = model.next_node_gap(0);
    // Crash in (40, 90); after repair at a+50 the next crash a+50+b must
    // land beyond horizon=95 so exactly one outage fires.
    if (a > 40.0 && a < 90.0 && b > 10.0) {
      seed = s;
      g0 = a;
    }
  }
  ASSERT_NE(seed, 0u);

  JobStream s;
  s.name = "one";
  s.jobs = {make_job(0, 0.0, 1, 100.0, 100.0, 0.0)};
  batch::validate_stream(s);
  SchedulerConfig cfg;
  cfg.policy = Policy::Fcfs;
  cfg.audit = true;
  cfg.faults = resil::FaultSpec::parse(
      "node_mtbf=60,node_repair=" + std::to_string(kRepair) +
      ",horizon=95,seed=" + std::to_string(seed));
  const FleetResult r = batch::run_scheduler(m, s, cfg);

  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(r.node_outages, 1u);
  EXPECT_EQ(r.resubmitted_jobs, 1u);
  ASSERT_EQ(r.jobs.size(), 1u);
  const batch::JobOutcome& j = r.jobs.front();
  EXPECT_EQ(j.resubmits, 1);
  // Lost work = one node held from the start to the crash.
  EXPECT_NEAR(j.lost_node_seconds, g0, 1e-9);
  EXPECT_NEAR(r.lost_node_seconds, g0, 1e-9);
  // The rerun starts at the repair and runs to completion.
  EXPECT_NEAR(j.start, g0 + kRepair, 1e-9);
  EXPECT_NEAR(r.makespan, g0 + kRepair + 100.0, 1e-9);
  EXPECT_NEAR(r.down_node_seconds, kRepair, 1e-9);
  EXPECT_FALSE(j.killed);  // estimate kill is a different mechanism
}

TEST(BatchOutage, FaultSweepStaysAuditCleanAcrossPolicies) {
  // Property sweep: every policy under a live outage process must stay
  // audit-clean, finish every job, and keep its loss accounting additive.
  batch::StreamConfig gen = contended_config(3.0);
  gen.job_count = 60;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen.seed = 100 + seed;
    const JobStream s = batch::make_stream(gen);
    for (const Policy policy : batch::kAllPolicies) {
      SchedulerConfig cfg;
      cfg.policy = policy;
      cfg.audit = true;
      cfg.faults = resil::FaultSpec::parse(
          "node_mtbf=5000,node_repair=400,horizon=40000,seed=" +
          std::to_string(seed));
      const FleetResult r = batch::run_scheduler(MachineSpec{16, 1e12, 0.0}, s, cfg);
      EXPECT_EQ(r.audit_violations, 0u) << to_string(policy) << " seed " << seed;
      ASSERT_EQ(r.jobs.size(), s.jobs.size());
      int resubmits = 0;
      double lost = 0.0;
      for (const batch::JobOutcome& j : r.jobs) {
        EXPECT_GE(j.start, j.submit);
        EXPECT_GE(j.end, j.start);
        resubmits += j.resubmits;
        lost += j.lost_node_seconds;
      }
      EXPECT_EQ(static_cast<std::size_t>(resubmits), r.resubmitted_jobs);
      EXPECT_NEAR(lost, r.lost_node_seconds, 1e-6);
      EXPECT_GE(r.makespan, 0.0);
    }
  }
}

TEST(BatchOutage, FaultyRunIsDeterministic) {
  const JobStream s = batch::make_stream(contended_config(3.0));
  SchedulerConfig cfg;
  cfg.policy = Policy::Easy;
  cfg.faults =
      resil::FaultSpec::parse("node_mtbf=3000,node_repair=300,seed=9,horizon=50000");
  const MachineSpec m{16, 1e12, 0.0};
  const FleetResult a = batch::run_scheduler(m, s, cfg);
  const FleetResult b = batch::run_scheduler(m, s, cfg);
  EXPECT_EQ(batch::batch_report(s, m, 10.0, {a}, true).dump(),
            batch::batch_report(s, m, 10.0, {b}, true).dump());
}

TEST(BatchOutage, ReportCarriesOutageSectionOnlyWhenArmed) {
  SchedulerConfig cfg;
  cfg.faults = resil::FaultSpec::parse("node_mtbf=100,horizon=1e-9");
  const FleetResult armed = run_tiny(Policy::Fcfs, cfg);
  const FleetResult off = run_tiny(Policy::Fcfs);
  const JobStream s = tiny_stream();
  const std::string with =
      batch::batch_report(s, tiny_machine(), 10.0, {armed}, false).dump();
  const std::string without =
      batch::batch_report(s, tiny_machine(), 10.0, {off}, false).dump();
  EXPECT_NE(with.find("\"outages\""), std::string::npos);
  EXPECT_EQ(without.find("\"outages\""), std::string::npos);
}

TEST(BatchCli, ParsesAndValidatesFaultsSpec) {
  const cli::BatchCliOptions opt = cli::parse_batch_cli(
      {"--gen", "5", "--faults", "node_mtbf=3600,node_repair=120,seed=3"});
  EXPECT_EQ(opt.faults, "node_mtbf=3600,node_repair=120,seed=3");
  const resil::FaultSpec spec = resil::FaultSpec::parse(opt.faults);
  EXPECT_DOUBLE_EQ(spec.node_mtbf, 3600.0);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--faults", "bogus=1"}),
               ConfigError);
  EXPECT_THROW(cli::parse_batch_cli({"--gen", "5", "--faults", "seed=7x"}),
               ConfigError);
}

}  // namespace
}  // namespace bbsim
