#include "exec/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "resil/fault.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::exec {

std::vector<ValidationIssue> validate_result(const Result& result,
                                             const wf::Workflow& workflow,
                                             const platform::PlatformSpec& platform) {
  std::vector<ValidationIssue> issues;
  auto complain = [&issues](std::string what, audit::Code code) {
    issues.push_back(ValidationIssue{std::move(what), code});
  };

  // --- every task ran exactly once, with ordered phases -------------------
  for (const wf::Task& task : workflow.tasks()) {
    const std::string& name = task.name;
    const auto it = result.tasks.find(name);
    if (it == result.tasks.end()) {
      complain("task '" + name + "' has no record", audit::Code::kTaskLifecycle);
      continue;
    }
    const TaskRecord& r = it->second;
    if (!(r.t_ready <= r.t_start + 1e-9)) {
      complain(util::format("task '%s': started (%.6f) before ready (%.6f)",
                            name.c_str(), r.t_start, r.t_ready),
               audit::Code::kTaskLifecycle);
    }
    if (!(r.t_start <= r.t_reads_done + 1e-9) ||
        !(r.t_reads_done <= r.t_compute_done + 1e-9) ||
        !(r.t_compute_done <= r.t_end + 1e-9)) {
      complain("task '" + name + "': phase timestamps out of order",
               audit::Code::kTaskLifecycle);
    }
    if (r.host >= platform.hosts.size()) {
      complain("task '" + name + "': host index out of range", audit::Code::kTaskLifecycle);
      continue;
    }
    if (r.cores < 1 || r.cores > platform.hosts[r.host].cores) {
      complain(util::format("task '%s': %d cores exceed host capacity %d",
                            name.c_str(), r.cores, platform.hosts[r.host].cores),
               audit::Code::kCoreOversubscription);
    }
  }
  for (const auto& [name, _] : result.tasks) {
    if (!workflow.has_task(name)) {
      complain("record for unknown task '" + name + "'", audit::Code::kTaskLifecycle);
    }
  }
  if (!issues.empty()) return issues;  // later checks assume complete records

  // --- precedence ---------------------------------------------------------
  // Attempt-aware under the resil layer: when a crash rolled a parent back
  // and re-ran it *after* a child had already consumed its output, the
  // record's t_end describes the re-run. The child only had to start after
  // the parent's FIRST completion, which the resil stats carry.
  const auto parent_done_by = [&result](const std::string& name,
                                        const TaskRecord& rec) {
    if (result.resil_stats) {
      const auto it = result.resil_stats->tasks.find(name);
      if (it != result.resil_stats->tasks.end() &&
          it->second.first_complete_time >= 0.0) {
        return std::min(rec.t_end, it->second.first_complete_time);
      }
    }
    return rec.t_end;
  };
  for (wf::TaskId id = 0; id < workflow.task_count(); ++id) {
    const std::string& name = workflow.task(id).name;
    const TaskRecord& child = result.tasks.at(name);
    for (const wf::TaskId parent_id : workflow.parents(id)) {
      const std::string& p = workflow.task(parent_id).name;
      const TaskRecord& parent = result.tasks.at(p);
      const double done = parent_done_by(p, parent);
      if (done > child.t_start + 1e-9) {
        complain(util::format("precedence violated: '%s' ended %.6f after "
                              "child '%s' started %.6f",
                              p.c_str(), done, name.c_str(), child.t_start),
                 audit::Code::kPrecedence);
      }
    }
  }

  // --- host core budget (sweep-line over start/end events) ----------------
  struct Event {
    double time;
    int delta;  // +cores at start, -cores at end
  };
  std::map<std::size_t, std::vector<Event>> per_host;
  for (const auto& [_, r] : result.tasks) {
    per_host[r.host].push_back({r.t_start, r.cores});
    per_host[r.host].push_back({r.t_end, -r.cores});
  }
  for (auto& [host, events] : per_host) {
    std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.delta < b.delta;  // process releases before acquisitions on ties
    });
    int in_use = 0;
    const int capacity = platform.hosts[host].cores;
    for (const Event& e : events) {
      in_use += e.delta;
      if (in_use > capacity) {
        complain(util::format("host %zu oversubscribed: %d cores in use at t=%.6f "
                              "(capacity %d)",
                              host, in_use, e.time, capacity),
                 audit::Code::kCoreOversubscription);
        break;  // one report per host suffices
      }
    }
  }

  // --- makespan covers everything -----------------------------------------
  double last_end = 0.0;
  for (const auto& [_, r] : result.tasks) last_end = std::max(last_end, r.t_end);
  if (result.makespan + 1e-9 < last_end) {
    complain(util::format("makespan %.6f < last task end %.6f", result.makespan,
                          last_end),
             audit::Code::kResultInconsistent);
  }
  return issues;
}

namespace {

constexpr double kBytesTolerance = 1e-6;

bool bytes_close(double a, double b) {
  return std::abs(a - b) <= kBytesTolerance * std::max(1.0, std::max(a, b));
}

}  // namespace

void audit_result(const Result& result, const wf::Workflow& workflow,
                  const platform::PlatformSpec& platform, audit::Auditor& auditor) {
  // Schedule legality: reuse the validator, whose issues carry audit codes.
  for (const ValidationIssue& issue : validate_result(result, workflow, platform)) {
    auditor.report(issue.code, audit::kPostRun, "result", issue.what);
  }

  // Byte conservation between the records and the workflow declaration:
  // a stage-in task moves data (reads what it writes); every other task
  // reads exactly its declared inputs and writes exactly its declared
  // outputs (paper Section IV-A's file-induced dependencies).
  for (const auto& [name, rec] : result.tasks) {
    if (!workflow.has_task(name)) continue;  // already reported above
    const wf::Task& task = workflow.task(name);
    if (task.type == wf::kStageInType) {
      if (!bytes_close(rec.bytes_read, rec.bytes_written)) {
        auditor.report(audit::Code::kByteConservation, audit::kPostRun, name,
                       util::format("stage-in read %.0f bytes but wrote %.0f",
                                    rec.bytes_read, rec.bytes_written));
      }
      continue;
    }
    double expect_read = 0.0;
    double expect_written = 0.0;
    for (const std::string& f : task.inputs) expect_read += workflow.file(f).size;
    for (const std::string& f : task.outputs) expect_written += workflow.file(f).size;
    if (!bytes_close(rec.bytes_read, expect_read)) {
      auditor.report(audit::Code::kByteConservation, audit::kPostRun, name,
                     util::format("read %.0f bytes, inputs declare %.0f",
                                  rec.bytes_read, expect_read));
    }
    if (!bytes_close(rec.bytes_written, expect_written)) {
      auditor.report(audit::Code::kByteConservation, audit::kPostRun, name,
                     util::format("wrote %.0f bytes, outputs declare %.0f",
                                  rec.bytes_written, expect_written));
    }
  }
}

void expect_valid(const Result& result, const wf::Workflow& workflow,
                  const platform::PlatformSpec& platform) {
  const auto issues = validate_result(result, workflow, platform);
  if (issues.empty()) return;
  std::string msg = "execution result failed validation:";
  for (std::size_t i = 0; i < issues.size() && i < 5; ++i) {
    msg += "\n  - " + issues[i].what;
  }
  if (issues.size() > 5) {
    msg += util::format("\n  (and %zu more)", issues.size() - 5);
  }
  BBSIM_ASSERT(false, msg);
}

}  // namespace bbsim::exec
