/// \file
/// bbsim::batch -- the two-resource batch scheduler: FCFS, EASY
/// backfilling, conservative backfilling and a plan-based lookahead
/// policy, all with burst-buffer capacity as a first-class second
/// dimension. A job starts only when BOTH its node count and its BB
/// reservation fit -- the central constraint of Kopanski & Rzadca's
/// shared-burst-buffer scheduling model (arXiv 2109.00082).
///
/// Policy semantics (docs/batch.md has the worked examples):
///
///   Fcfs          strict arrival order; the queue head blocks everyone
///                 behind it until both of its resources fit.
///   Easy          the head gets a reservation at the *shadow time* (the
///                 earliest instant running-job estimates free both its
///                 nodes and its BB). A later job may backfill now iff it
///                 fits now and either (a) it ends -- by its estimate --
///                 before the shadow, or (b) it needs no resource the head
///                 reservation will: it fits inside min(free now, free at
///                 shadow minus the head's claim) in both dimensions.
///   Conservative  every queued job holds a profile reservation, assigned
///                 in arrival order; a job starts when its reserved start
///                 is now. No job is ever delayed past the promise it was
///                 given when it entered the queue (estimates exact).
///   PlanBased     lookahead: candidate queue orderings (arrival, shortest
///                 job, smallest area, smallest BB) are each placed onto
///                 the availability profile; the ordering with the lowest
///                 total estimated bounded slowdown wins and is executed
///                 conservative-style. The paper-family result is that
///                 planning beats greedy backfilling under BB contention.
///
/// Kill-at-estimate: the executed runtime is min(actual, estimate), so
/// every reservation computed from estimates is sound -- backfilled jobs
/// can never push a reservation back. JobOutcome::reserved_start records
/// the first promise each job received; with exact estimates,
/// start <= reserved_start is an invariant (tests/batch_test.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "batch/job.hpp"
#include "resil/fault.hpp"
#include "stats/metrics.hpp"
#include "trace/timeline.hpp"

namespace bbsim::batch {

/// The scheduling policies the fleet simulator implements.
enum class Policy {
  Fcfs,          ///< first-come first-served, no skipping
  Easy,          ///< EASY backfilling (one shadow reservation for the head)
  Conservative,  ///< conservative backfilling (a reservation per queued job)
  PlanBased,     ///< ordering lookahead over the reservation profile
};

/// Stable identifier ("fcfs", "easy", "conservative", "plan"), part of the
/// bbsim.batch.v1 schema.
const char* to_string(Policy policy);
/// Inverse of to_string; throws util::ConfigError on unknown names.
Policy policy_from_string(const std::string& text);
/// Every policy, in declaration order (CLI "--policy all" iterates this).
inline constexpr Policy kAllPolicies[] = {Policy::Fcfs, Policy::Easy,
                                          Policy::Conservative, Policy::PlanBased};

/// The machine the fleet shares: homogeneous nodes plus one burst-buffer
/// pool, reserved wholesale per job (DataWarp-style).
struct MachineSpec {
  int nodes = 32;
  double bb_bytes = 6.4e12;
  /// Allocation granule of the BB pool (DataWarp allocates in fixed-size
  /// chunks; Cori's was ~20 GiB). Requests round up to a whole number of
  /// granules -- the gap is *internal fragmentation*, reported per run.
  /// 0 disables rounding.
  double bb_granule = 0.0;

  /// Bytes actually allocated for a request of `bytes` (granule rounding).
  double bb_alloc(double bytes) const;
};

/// Scheduler run options.
struct SchedulerConfig {
  Policy policy = Policy::Fcfs;
  /// Bounded-slowdown runtime floor in seconds (the standard tau = 10 s):
  /// BSLD = max(1, (wait + runtime) / max(runtime, tau)). The floor keeps
  /// tiny jobs from dominating the mean.
  double tau = 10.0;
  /// Collect fleet metrics (queue depth, free nodes, BB occupancy series;
  /// wait / slowdown histograms) into FleetResult::metrics.
  bool collect_metrics = false;
  /// Record a per-job timeline (wait + run spans on machine lanes, free-node
  /// and BB-occupancy counter tracks) into FleetResult::timeline.
  bool collect_timeline = false;
  /// Audit the run: the per-job reservation ledger is re-derived at every
  /// event and checked against the scheduler's own accounting
  /// (reservation_imbalance), BB occupancy against capacity
  /// (capacity_exceeded), and each outcome's times for legality
  /// (job_lifecycle). Violations land in FleetResult::audit
  /// (schema bbsim.audit.v1), never thrown.
  bool audit = false;
  /// Node-outage process (only the node_* / seed / horizon keys of the spec
  /// are meaningful at fleet scale). Each machine node carries its own
  /// seeded crash stream; an outage takes one node down for node_repair
  /// seconds. If every node is busy when the crash lands, the most recently
  /// started running job is killed and resubmitted to the queue tail
  /// (kill-and-resubmit, the standard batch-system response to node loss).
  /// Disabled (the default) leaves every FleetResult bitwise-identical to a
  /// build without this feature.
  resil::FaultSpec faults;
};

/// What happened to one job.
struct JobOutcome {
  std::size_t id = 0;
  std::string name;
  double submit = 0.0;
  int nodes = 1;
  double bb_bytes = 0.0;     ///< requested
  double bb_alloc = 0.0;     ///< allocated (granule-rounded)
  double estimate = 0.0;
  double start = 0.0;
  double end = 0.0;
  double runtime = 0.0;      ///< executed: min(actual, estimate)
  bool killed = false;       ///< actual exceeded the estimate
  bool backfilled = false;   ///< started ahead of an earlier-arrived job
  /// First start-time promise this job received while queued (-1 = no
  /// promise was ever made: the job started without blocking, or the
  /// policy makes none). Easy promises the head its shadow time;
  /// Conservative promises every queued job its reservation. With exact
  /// estimates, start <= reserved_start is an invariant for both.
  /// PlanBased leaves this at -1 (its tentative starts are re-negotiated).
  double reserved_start = -1.0;
  /// Times this job was killed by a node outage and re-queued. start/end/
  /// runtime describe the final (successful) attempt; submit stays at the
  /// original arrival, so wait() and slowdown absorb the lost attempts.
  int resubmits = 0;
  /// Node-seconds of work this job lost to outage kills across all failed
  /// attempts: sum over kills of (kill_time - attempt_start) * nodes.
  double lost_node_seconds = 0.0;
  /// Seconds this job spent as the queue head fitting on nodes but blocked
  /// by the BB dimension alone -- its share of bb_blocked_seconds. Feeds
  /// the bb_capacity_wait blame class of the batch critical-path report
  /// and the storage.bb.alloc_wait_seconds metrics series.
  double bb_wait_seconds = 0.0;

  double wait() const { return start - submit; }
  double response() const { return end - submit; }
  double bounded_slowdown(double tau) const;
};

/// The finished fleet simulation of one policy over one stream.
struct FleetResult {
  Policy policy = Policy::Fcfs;
  double makespan = 0.0;  ///< last job completion
  std::vector<JobOutcome> jobs;  ///< in job-id order

  // Time-weighted accounting over [0, makespan].
  double node_seconds = 0.0;      ///< sum over time of busy nodes
  double bb_byte_seconds = 0.0;   ///< sum over time of allocated BB bytes
  double bb_req_byte_seconds = 0.0;  ///< same, but requested (un-rounded)
  /// Seconds during which the queue head fit on nodes but was blocked by
  /// the BB dimension alone -- the direct price of BB contention.
  double bb_blocked_seconds = 0.0;
  double queue_job_seconds = 0.0;  ///< integral of queue depth over time
  std::size_t backfilled_jobs = 0;
  std::size_t killed_jobs = 0;
  /// Work count of conservative and plan-based backfilling: availability-
  /// profile segments whose capacity a placement compared, over the run.
  /// Deterministic; zero for fcfs and easy. Not part of bbsim.batch.v1.
  std::size_t profile_segments_scanned = 0;

  // Node-outage accounting (all zero unless SchedulerConfig::faults enables
  // the outage process).
  bool faults_enabled = false;       ///< the outage process was armed
  std::size_t node_outages = 0;      ///< crash events that took a node down
  std::size_t resubmitted_jobs = 0;  ///< outage kills (job re-queue events)
  double lost_node_seconds = 0.0;    ///< work destroyed by outage kills
  double down_node_seconds = 0.0;    ///< integral of down nodes over time

  /// Metrics snapshot (bbsim.metrics.v1); null unless collect_metrics.
  json::Value metrics;
  /// Audit report (bbsim.audit.v1); null unless SchedulerConfig::audit.
  json::Value audit;
  std::size_t audit_violations = 0;
  /// Sealed timeline (wait spans on); nullptr unless collect_timeline.
  std::shared_ptr<const trace::Timeline> timeline;

  double node_utilization(const MachineSpec& machine) const;
  double bb_utilization(const MachineSpec& machine) const;
  /// Time-weighted internal fragmentation: (allocated - requested) /
  /// allocated byte-seconds. 0 when no granule rounding happened.
  double bb_internal_fragmentation() const;
  double bb_blocked_fraction() const;
};

/// Run one policy over one stream on one machine. The stream must be
/// validated (validate_stream) and every job must carry a positive
/// walltime_actual (resolve_payloads first when payloads are in play).
/// Deterministic: same inputs, same FleetResult, bit for bit.
FleetResult run_scheduler(const MachineSpec& machine, const JobStream& stream,
                          const SchedulerConfig& config);

}  // namespace bbsim::batch
