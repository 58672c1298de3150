// bbsim -- post-run validation of an execution Result.
//
// Checks invariants that must hold for ANY correct simulated execution:
//   * every workflow task ran exactly once, with consistent phase ordering;
//   * precedence: each parent finished before its child started;
//   * no host was oversubscribed: at every instant the cores of tasks
//     running on a host sum to at most the host's core count;
//   * the makespan covers every task.
//
// Used by tests and available to users as a cheap sanity check after
// experiments with custom policies/schedulers.
#pragma once

#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "exec/trace.hpp"
#include "platform/spec.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::exec {

/// One violated invariant, in the audit's taxonomy: kTaskLifecycle (a
/// missing or unknown record, disordered phase times, a host index out of
/// range), kCoreOversubscription (a task's or concurrent tasks' cores
/// exceed the host's), kPrecedence or kResultInconsistent (the makespan
/// does not cover every task).
struct ValidationIssue {
  std::string what;
  audit::Code code = audit::Code::kTaskLifecycle;
};

/// Returns all violations found (empty = the run is consistent).
std::vector<ValidationIssue> validate_result(const Result& result,
                                             const wf::Workflow& workflow,
                                             const platform::PlatformSpec& platform);

/// Records every validation issue into `auditor` (schedule legality:
/// lifecycle, precedence, core non-overlap), then cross-checks byte
/// conservation between each task's recorded I/O volumes and the
/// workflow's declared file sizes. Used by audited runs after the engine
/// drains; detection times are audit::kPostRun.
void audit_result(const Result& result, const wf::Workflow& workflow,
                  const platform::PlatformSpec& platform, audit::Auditor& auditor);

/// Convenience: throws InvariantError listing the first issues when any
/// violation is found.
void expect_valid(const Result& result, const wf::Workflow& workflow,
                  const platform::PlatformSpec& platform);

}  // namespace bbsim::exec
