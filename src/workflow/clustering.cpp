#include "workflow/clustering.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "util/strings.hpp"

namespace bbsim::wf {

namespace {

/// Is the link from `task` to its sole child mergeable? Returns the child,
/// or nullopt when the link cannot be merged.
std::optional<TaskId> mergeable_child(const Workflow& w, TaskId task,
                                      const ClusteringOptions& opt) {
  // Stage-in tasks get special engine treatment; never merge across them.
  if (w.task(task).type == kStageInType) return std::nullopt;
  const auto children = w.children(task);
  if (children.size() != 1) return std::nullopt;
  const TaskId child = children.front();
  if (w.task(child).type == kStageInType) return std::nullopt;
  if (w.parents(child).size() != 1) return std::nullopt;
  // Every produced file must feed only the child (or nobody: final outputs
  // are allowed and survive the merge); internalised files must be small.
  for (const FileId f : w.outputs(task)) {
    const auto consumers = w.consumers(f);
    if (consumers.empty()) continue;  // final product of an inner task
    if (consumers.size() != 1 || consumers.front() != child) return std::nullopt;
    if (w.file(f).size > opt.max_internal_file_bytes) return std::nullopt;
  }
  return child;
}

}  // namespace

ClusteringResult cluster_chains(const Workflow& workflow,
                                const ClusteringOptions& options) {
  ClusteringResult out;
  std::vector<TaskId> head_of(workflow.task_count());  // chain head of each task
  std::iota(head_of.begin(), head_of.end(), TaskId{0});
  std::vector<std::vector<TaskId>> chain_of(workflow.task_count());  // by head

  // Grow maximal chains greedily in topological order.
  for (const TaskId head : workflow.topological_order()) {
    if (head_of[head] != head) continue;  // merged into an earlier head
    std::vector<TaskId> chain{head};
    double seconds = workflow.task(head).flops / options.reference_core_speed;
    TaskId current = head;
    while (const auto child = mergeable_child(workflow, current, options)) {
      const double child_seconds =
          workflow.task(*child).flops / options.reference_core_speed;
      if (options.max_merged_seconds > 0 &&
          seconds + child_seconds > options.max_merged_seconds) {
        break;
      }
      chain.push_back(*child);
      head_of[*child] = head;
      seconds += child_seconds;
      current = *child;
    }
    chain_of[head] = std::move(chain);
  }

  // Identify internalised files: produced and consumed within one chain.
  std::vector<char> internal(workflow.file_count(), 0);
  for (TaskId t = 0; t < workflow.task_count(); ++t) {
    for (const FileId f : workflow.outputs(t)) {
      const auto consumers = workflow.consumers(f);
      internal[f] = !consumers.empty() &&
                    std::all_of(consumers.begin(), consumers.end(),
                                [&](TaskId c) { return head_of[c] == head_of[t]; });
    }
  }
  out.files_internalised =
      static_cast<std::size_t>(std::count(internal.begin(), internal.end(), 1));

  // Emit surviving files.
  out.workflow.name = workflow.name + "-clustered";
  for (FileId f = 0; f < workflow.file_count(); ++f) {
    if (internal[f] == 0) out.workflow.add_file(workflow.file(f));
  }

  // Emit merged tasks (in original creation order of heads for stability).
  std::vector<TaskId> merged_of(workflow.task_count());  // head -> merged task id
  for (TaskId head = 0; head < workflow.task_count(); ++head) {
    const std::vector<TaskId>& chain = chain_of[head];
    if (chain.empty()) continue;  // absorbed member

    Task merged;
    const Task& head_task = workflow.task(head);
    merged.name = chain.size() == 1
                      ? head_task.name
                      : util::format("%s__x%zu", head_task.name.c_str(), chain.size());
    merged_of[head] = static_cast<TaskId>(out.workflow.task_count());
    bool homogeneous = true;
    std::set<std::string> in_set, out_set;
    for (const TaskId member : chain) {
      const Task& t = workflow.task(member);
      if (t.type != head_task.type) homogeneous = false;
      merged.flops += t.flops;
      merged.requested_cores = std::max(merged.requested_cores, t.requested_cores);
      for (const FileId f : workflow.inputs(member)) {
        if (internal[f] == 0) in_set.insert(workflow.file(f).name);
      }
      for (const FileId f : workflow.outputs(member)) {
        if (internal[f] == 0) out_set.insert(workflow.file(f).name);
      }
      out.mapping[t.name] = merged.name;
    }
    merged.type = homogeneous ? head_task.type : "cluster";
    // Equivalent Amdahl fraction: the chain runs its members back to back,
    // so preserve the total time at 1 core and at the merged core count:
    //   T(p) = sum_i amdahl(T1_i, p, alpha_i) = alpha_eq*T1 + (1-alpha_eq)*T1/p.
    if (merged.flops > 0 && merged.requested_cores > 1) {
      const int p = merged.requested_cores;
      double t1 = 0.0, tp = 0.0;
      for (const TaskId member : chain) {
        const Task& t = workflow.task(member);
        t1 += t.flops;
        tp += t.alpha * t.flops + (1.0 - t.alpha) * t.flops / p;
      }
      merged.alpha =
          std::clamp((tp - t1 / p) / (t1 * (1.0 - 1.0 / p)), 0.0, 1.0);
    }
    merged.inputs.assign(in_set.begin(), in_set.end());
    merged.outputs.assign(out_set.begin(), out_set.end());
    if (chain.size() > 1) ++out.chains_merged;
    out.workflow.add_task(std::move(merged));
  }

  // Re-create control dependencies between surviving tasks where no file
  // already induces the edge. They are added after the scan, which reads
  // the merged workflow's file edges.
  std::vector<std::pair<TaskId, TaskId>> control;
  for (TaskId t = 0; t < workflow.task_count(); ++t) {
    for (const TaskId child : workflow.children(t)) {
      const TaskId from = merged_of[head_of[t]];
      const TaskId to = merged_of[head_of[child]];
      if (from == to) continue;  // merged away
      const auto outputs = out.workflow.outputs(from);
      const bool via_file = std::any_of(outputs.begin(), outputs.end(), [&](FileId f) {
        const auto consumers = out.workflow.consumers(f);
        return std::find(consumers.begin(), consumers.end(), to) != consumers.end();
      });
      if (!via_file) control.emplace_back(from, to);
    }
  }
  for (const auto& [from, to] : control) {
    out.workflow.add_control_dep(out.workflow.task(from).name, out.workflow.task(to).name);
  }

  out.workflow.validate();
  return out;
}

}  // namespace bbsim::wf
