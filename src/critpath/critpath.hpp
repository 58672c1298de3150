// Causal critical-path extraction and makespan blame attribution.
//
// During a run the engine folds into each task's TaskTrace the causal facts
// the final task records cannot reconstruct on their own: why the task
// became ready (workflow start, a parent's completion, a requeue after a
// crash, a rollback), which attempts were aborted and when, how the
// surviving attempt's bytes split between burst buffer and PFS, and how
// long checkpoint writes stalled compute. A post-run pass (`analyze`) walks
// backwards from the task that determines the makespan and partitions
// [0, makespan] into contiguous segments, each charged to exactly one blame
// class — so the critical-path length and the per-class blame totals both
// equal the makespan by construction, which the auditor cross-checks at
// 1e-9.
//
// The same per-task decomposition doubles as a replayable graph: `analyze`
// re-walks it with one blame class scaled (e.g. BB transfer x0 = "infinite
// BB bandwidth") to estimate makespan sensitivity without re-simulating.
// With every scale at 1 the replay reproduces the observed makespan exactly;
// that identity is a fuzz oracle.
//
// The library only depends on json/util so storage, exec, and batch can all
// layer on top of it (same position in the DAG as src/stats and src/trace).

#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace bbsim::critpath {

/// Blame classes. The set is fixed and part of the bbsim.critpath.v1 schema;
/// reports always emit all six in this order, zero or not.
enum class Blame {
  kCompute,         ///< CPU work (checkpoint stalls excluded)
  kBbTransfer,      ///< bytes moving to/from a burst buffer
  kPfsTransfer,     ///< bytes moving to/from the PFS (incl. staging)
  kBbCapacityWait,  ///< waiting for BB space (batch BB-blocked head)
  kQueueWait,       ///< ready but not running: cores, queue position
  kRecoveryRework,  ///< attempts lost to faults, restart latency
};

inline constexpr std::size_t kBlameCount = 6;

inline constexpr std::array<Blame, kBlameCount> kAllBlames = {
    Blame::kCompute,        Blame::kBbTransfer,     Blame::kPfsTransfer,
    Blame::kBbCapacityWait, Blame::kQueueWait,      Blame::kRecoveryRework,
};

const char* to_string(Blame blame);

/// Why a task became ready (one record per readiness event).
struct ReadyCause {
  enum class Kind {
    kWorkflowStart,  ///< entry task, ready when the run began
    kParent,         ///< the named parent's completion unblocked it
    kRequeue,        ///< a crash killed the attempt and requeued the task
    kRollback,       ///< lineage loss rolled the task back
  };
  Kind kind = Kind::kWorkflowStart;
  std::string parent;  ///< kParent only: the triggering parent task
};

struct ReadyEvent {
  double time = 0.0;
  ReadyCause cause;
};

/// One aborted attempt: the task waited over [t_ready, t_start] and did work
/// over [t_start, t_until] that a fault then threw away.
struct AbortedAttempt {
  double t_ready = 0.0;
  double t_start = 0.0;
  double t_until = 0.0;
};

/// Bytes and operations one attempt moved through one storage tier.
struct TierIo {
  double bytes = 0.0;
  std::size_t ops = 0;  ///< break ties when a window is all metadata
};

/// What the surviving attempt of a task did. A fault that aborts the
/// attempt discards it; the next attempt starts from zero.
struct AttemptTally {
  TierIo read_bb;
  TierIo read_pfs;
  TierIo write_bb;
  TierIo write_pfs;
  /// Restart latency paid before the attempt's reads began.
  double restart_delay_seconds = 0.0;
  /// Compute-phase seconds the attempt spent blocked on checkpoint writes,
  /// by destination tier.
  double ckpt_bb_seconds = 0.0;
  double ckpt_pfs_seconds = 0.0;
};

/// Everything the run recorded about one task.
struct TaskTrace {
  std::vector<ReadyEvent> ready;        ///< chronological
  std::vector<AbortedAttempt> aborted;  ///< chronological
  AttemptTally attempt;                 ///< the surviving attempt
};

/// Final timings of one executed task, as the engine's records carry them.
struct TaskTimes {
  std::string name;
  bool stage_in = false;  ///< a stage-in pseudo-task (pure PFS->BB copy)
  double t_ready = 0.0;
  double t_start = 0.0;
  double t_reads_done = 0.0;
  double t_compute_done = 0.0;
  double t_end = 0.0;
  std::vector<std::string> parents;  ///< workflow dependency edges
  TaskTrace trace;                    ///< causal facts the run recorded
};

/// One contiguous slice of the critical path, charged to one blame class.
struct Segment {
  std::string task;   ///< task name, or "implicit_stage_in" / "stage_out"
  std::string phase;  ///< wait | read | compute | ckpt_stall | write |
                      ///< rework | stage | stage_out
  Blame blame = Blame::kCompute;
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// Replay result for one scenario (one vector of per-class scales).
struct WhatIf {
  std::string scenario;
  std::array<double, kBlameCount> scale{};
  double makespan = 0.0;
};

struct Report {
  double makespan = 0.0;
  std::vector<Segment> path;                 ///< chronological, contiguous
  std::array<double, kBlameCount> blame{};   ///< per-class path seconds
  std::map<std::string, double> slack;       ///< per task, name-ordered
  std::vector<WhatIf> what_ifs;

  double path_length() const;
  double blame_total() const;
  /// Re-derive the per-class blame totals from the path segments. Used by
  /// producers (exec, batch) that assemble `path` themselves.
  void set_blame_from_path();
  /// Deterministic bbsim.critpath.v1 report section.
  json::Value to_json() const;
};

/// Everything `analyze` reads.
struct AnalyzeInput {
  std::vector<TaskTimes> tasks;
  double makespan = 0.0;            ///< includes any trailing stage-out
  double stage_out_duration = 0.0;  ///< explicit stage-out drain tail
  /// The run staged its inputs in one window before any task (a staging
  /// plan on a workflow without a stage-in task). Entry tasks became ready
  /// when it ended, so the window heads their chains as a PFS transfer
  /// instead of queue wait.
  bool implicit_stage_in = false;
};

/// Extract the critical path, attribute blame, compute per-task slack, and
/// run the standard what-if scenarios. Pure function of its inputs, so the
/// report is byte-identical across repeated runs and worker counts.
Report analyze(const AnalyzeInput& input);

}  // namespace bbsim::critpath
