// bbsim -- execution records: the time-stamped event trace and per-task
// timings a simulation run produces (paper Section IV-A: "the simulator ...
// outputs a time-stamped event trace").
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "critpath/critpath.hpp"
#include "exec/placement.hpp"
#include "json/json.hpp"

namespace bbsim::trace {
struct Timeline;
}  // namespace bbsim::trace

namespace bbsim::resil {
struct RunStats;
}  // namespace bbsim::resil

namespace bbsim::exec {

/// The closed set of event kinds the execution engine emits. Serialised
/// by to_string() -- the JSON wire format is the same snake_case string the
/// trace always carried; the enum just makes producers typo-proof. The
/// parentheses name the payload fields a kind sets (BasicTraceEvent).
enum class TraceEventKind {
  TaskReady,     ///< entered the ready queue (cause; parent on a parent edge)
  TaskStart,     ///< dispatched onto a host (host, count = cores)
  ReadsDone,     ///< last input byte arrived; compute begins
  ComputeDone,   ///< compute finished; writes begin
  Write,         ///< one output write issued (file, service, tier, amount = bytes)
  TaskEnd,       ///< last output byte landed; cores released
  StageFile,     ///< one file staged PFS -> BB (file, host = via host)
  StageSkipped,  ///< staging skipped: BB full (file)
  StageOut,      ///< one file drained BB -> PFS (file)
  Evict,         ///< one staged input evicted from the BB (file)
  // Resilience events (src/resil; only emitted when faults/checkpointing
  // are configured, so fault-free traces are unchanged).
  NodeCrash,          ///< a host went down (host)
  NodeRepair,         ///< a host rejoined after repair (host)
  BbDegraded,         ///< BB bandwidth degradation window opened (scale, duration)
  PfsBrownout,        ///< PFS brownout window opened (scale, duration)
  FaultCleared,       ///< a BB/PFS window closed (tier)
  TaskKilled,         ///< a running attempt was killed (host, count = attempts)
  TaskRestart,        ///< a restarted attempt was dispatched (count = attempt,
                      ///< amount = restart delay seconds)
  Rollback,           ///< a completed task was un-done by lineage loss
                      ///< (count = attempt of the re-run)
  Checkpoint,         ///< one checkpoint write issued (file, service)
  CheckpointDrained,  ///< an async checkpoint drain reached the PFS
  // Internal events: they feed the critical-path fold but are neither
  // stored in Result::trace nor exported.
  Read,            ///< one input read issued (file, tier = source, amount = bytes)
  CheckpointDone,  ///< a checkpoint write landed (tier, amount = stall seconds)
};

/// Name of a kind ("task_ready", "task_start", ...). Internal kinds are
/// named for diagnostics only; they never reach the wire.
const char* to_string(TraceEventKind kind);

/// Does the kind appear in Result::trace and the exported trace?
constexpr bool exported(TraceEventKind kind) {
  return kind != TraceEventKind::Read && kind != TraceEventKind::CheckpointDone;
}

/// Every kind, in declaration order (tests assert the set is exhaustive).
inline constexpr TraceEventKind kAllTraceEventKinds[] = {
    TraceEventKind::TaskReady,    TraceEventKind::TaskStart,
    TraceEventKind::ReadsDone,    TraceEventKind::ComputeDone,
    TraceEventKind::Write,        TraceEventKind::TaskEnd,
    TraceEventKind::StageFile,    TraceEventKind::StageSkipped,
    TraceEventKind::StageOut,     TraceEventKind::Evict,
    TraceEventKind::NodeCrash,    TraceEventKind::NodeRepair,
    TraceEventKind::BbDegraded,   TraceEventKind::PfsBrownout,
    TraceEventKind::FaultCleared, TraceEventKind::TaskKilled,
    TraceEventKind::TaskRestart,  TraceEventKind::Rollback,
    TraceEventKind::Checkpoint,   TraceEventKind::CheckpointDrained,
    TraceEventKind::Read,         TraceEventKind::CheckpointDone,
};

/// One typed event of a run. `Str` is std::string in the stored trace
/// (TraceEvent) and std::string_view while the engine emits it
/// (TraceEventView), so emitting copies and formats nothing. A kind sets
/// the payload fields listed at its enumerator; the rest keep defaults.
template <class Str>
struct BasicTraceEvent {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::TaskReady;
  /// The task, or "implicit_stage_in" / "stage_out" / "" for events that
  /// belong to no task.
  Str task{};
  Str file{};
  Str service{};  ///< destination storage service
  Str parent{};   ///< TaskReady: the parent whose completion readied the task
  std::size_t host = 0;
  int count = 0;          ///< cores or attempt number
  double amount = 0.0;    ///< bytes or seconds
  double scale = 0.0;     ///< fault bandwidth factor
  double duration = 0.0;  ///< fault window length (s)
  Tier tier = Tier::PFS;
  critpath::ReadyCause::Kind cause = critpath::ReadyCause::Kind::kWorkflowStart;
};

using TraceEvent = BasicTraceEvent<std::string>;
using TraceEventView = BasicTraceEvent<std::string_view>;

/// The `detail` text of an exported event ("host=0 cores=4", "f -> bb").
/// Result::to_json is its only reader.
std::string detail(const TraceEvent& event);

/// Timings and volumes for one executed task.
struct TaskRecord {
  std::string name;
  std::string type;
  std::size_t host = 0;
  int cores = 1;
  double t_ready = 0.0;
  double t_start = 0.0;
  double t_reads_done = 0.0;
  double t_compute_done = 0.0;
  double t_end = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;

  double duration() const { return t_end - t_start; }
  double read_time() const { return t_reads_done - t_start; }
  double compute_time() const { return t_compute_done - t_reads_done; }
  double write_time() const { return t_end - t_compute_done; }
  double io_time() const { return read_time() + write_time(); }
  /// Observed I/O fraction of this task (the lambda of paper Eq. (1)).
  double lambda_io() const {
    const double d = duration();
    return d > 0 ? io_time() / d : 0.0;
  }
};

/// Per-storage-service achieved throughput (paper Figure 9).
struct StorageCounters {
  std::string service;
  double bytes_served = 0.0;
  double busy_time = 0.0;
  /// (time, bytes/s) achieved-bandwidth samples over the run -- the
  /// time-resolved counterpart of achieved_bandwidth(). Filled from the
  /// metrics registry when ExecutionConfig::collect_metrics is on.
  std::vector<std::pair<double, double>> bandwidth_series;
  double achieved_bandwidth() const {
    return busy_time > 0 ? bytes_served / busy_time : 0.0;
  }
};

/// Everything a run produces.
struct Result {
  /// Date of the last event = last task completion (includes stage-in when
  /// the workflow has a stage-in task and it is counted).
  double makespan = 0.0;
  /// Duration of the stage-in phase (0 when none ran).
  double stage_in_duration = 0.0;
  /// Makespan excluding the stage-in phase.
  double workflow_span = 0.0;

  std::map<std::string, TaskRecord> tasks;
  std::vector<TraceEvent> trace;
  std::vector<StorageCounters> storage;
  /// BB writes demoted to the PFS because a consumer on another node could
  /// not have read them (node-local / private-mode restriction).
  std::size_t demoted_writes = 0;
  /// Input files that were selected for staging but did not fit in the
  /// burst buffer's remaining capacity (they are read from the PFS instead).
  std::size_t skipped_stage_files = 0;
  /// Duration of the final BB -> PFS drain (stage_out option; 0 otherwise).
  /// Included in `makespan`.
  double stage_out_duration = 0.0;
  /// Staged input files evicted from the BB to make room (bb_eviction).
  std::size_t evicted_files = 0;
  /// Peak burst-buffer occupancy over the run in bytes (0 when the platform
  /// has no BB). The batch layer audits per-job reservations against this.
  double bb_peak_bytes = 0.0;
  /// Snapshot of the metrics registry (ExecutionConfig::collect_metrics);
  /// null when metrics were not collected.
  json::Value metrics;
  /// Invariant-audit report, schema bbsim.audit.v1 (ExecutionConfig::audit);
  /// null when the run was not audited.
  json::Value audit;
  /// Violations the auditor recorded (0 when auditing was off or the run
  /// was clean -- check `audit.is_null()` to tell the two apart).
  std::size_t audit_violations = 0;
  /// The run's sealed virtual-time timeline (ExecutionConfig::
  /// collect_timeline); nullptr when not recorded. Export with
  /// Timeline::to_perfetto(). Shared so Result stays copyable.
  std::shared_ptr<const trace::Timeline> timeline;
  /// Wall-clock self-profile (ExecutionConfig::profile); null when
  /// profiling was off. NON-DETERMINISTIC: carries a "nondeterministic"
  /// marker and must be excluded from golden comparisons.
  json::Value profile;
  /// Resilience accounting, serialized into to_json() as the "resil"
  /// section (schema bbsim.resil.v1); nullptr unless the run had the
  /// resilience layer active (ExecutionConfig::faults / ::checkpoint).
  /// Shared so Result stays copyable.
  std::shared_ptr<const resil::RunStats> resil_stats;
  /// Critical-path / blame-attribution report, schema bbsim.critpath.v1
  /// (ExecutionConfig::critpath); null when the pass was off.
  json::Value critpath;

  /// All records of a type, in name order.
  std::vector<const TaskRecord*> records_of(const std::string& type) const;

  /// Serialise the trace + records for offline analysis.
  json::Value to_json() const;
};

}  // namespace bbsim::exec
