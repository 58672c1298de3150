/// \file
/// bbsim::oracle -- the straight-line reference execution replayer.
///
/// A second, independent implementation of the simulator's execution
/// semantics (paper Section IV-A), written to be simple rather than fast:
///
///   * every rate allocation is recomputed from scratch by the brute-force
///     reference max-min solver (maxmin_ref.hpp) -- no incremental solver
///     state, no flow-id recycling, no cached aggregates;
///   * transfer progress, storage occupancy and replica bookkeeping are
///     plain maps and long-double accumulators;
///   * the event loop is a flat (time, sequence)-ordered list with the same
///     FIFO tie-break contract as sim::Engine.
///
/// The replayer shares only *decision inputs* with the production engine --
/// the Workflow graph queries, the placement policy objects and the pinning
/// assignment (exec::compute_home_hosts) -- because a divergence in those
/// would make both sides pick different scenarios rather than expose a
/// timing bug. All *timing math* (flow rates, plan latencies, metadata and
/// striping costs, Amdahl compute times, completion ordering) is
/// re-derived here from the platform spec and the paper's equations.
///
/// The differential tester (src/fuzz) runs exec::Simulation and
/// reference_execute on the same scenario and diffs per-task timestamps and
/// the final makespan (diff.hpp).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "exec/engine.hpp"
#include "platform/spec.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::oracle {

/// Per-task timings recomputed by the replayer (the subset of
/// exec::TaskRecord the differential tester compares).
struct RefTask {
  std::size_t host = 0;
  int cores = 1;
  double t_ready = 0.0;
  double t_start = 0.0;
  double t_reads_done = 0.0;
  double t_compute_done = 0.0;
  double t_end = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
};

/// Everything a reference replay produces.
struct RefResult {
  double makespan = 0.0;
  double stage_in_duration = 0.0;
  double stage_out_duration = 0.0;
  double workflow_span = 0.0;
  std::size_t demoted_writes = 0;
  std::size_t skipped_stage_files = 0;
  std::size_t evicted_files = 0;
  std::map<std::string, RefTask> tasks;
};

/// The execution-config subset the replayer models. Matches the semantics
/// of the same-named exec::ExecutionConfig fields; testbed perturbations,
/// compute noise, metrics and auditing are deliberately out of scope (the
/// differential tester never samples them).
struct RefConfig {
  std::shared_ptr<exec::PlacementPolicy> placement;  ///< default: all_bb_policy()
  exec::StageInMode stage_in_mode = exec::StageInMode::Task;
  exec::SchedulerPolicy scheduler = exec::SchedulerPolicy::Fcfs;
  bool stage_out = false;
  bool bb_eviction = false;
  int stage_in_width = 1;
  int force_cores = 0;
};

/// Runs the workflow on the platform from first principles and returns the
/// recomputed timings. Throws the same typed errors as the engine on
/// infeasible scenarios (task wider than every host, unreadable replica).
RefResult reference_execute(const platform::PlatformSpec& platform,
                            const wf::Workflow& workflow, const RefConfig& config = {});

}  // namespace bbsim::oracle
