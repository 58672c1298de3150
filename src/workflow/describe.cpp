#include "workflow/describe.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::wf {

WorkflowSummary summarize(const Workflow& workflow) {
  WorkflowSummary s;
  s.tasks = workflow.task_count();
  s.files = workflow.file_count();
  s.total_flops = workflow.total_flops();
  s.total_bytes = workflow.total_data_bytes();
  s.input_bytes = workflow.input_data_bytes();
  for (const FileId f : workflow.output_files()) s.output_bytes += workflow.file(f).size;
  for (const FileId f : workflow.intermediate_files()) {
    s.intermediate_bytes += workflow.file(f).size;
  }

  // Level structure via longest path depth.
  std::vector<std::size_t> depth(workflow.task_count(), 0);
  std::map<std::size_t, std::size_t> width;
  for (const TaskId t : workflow.topological_order()) {
    std::size_t d = 1;
    for (const TaskId p : workflow.parents(t)) d = std::max(d, depth[p] + 1);
    depth[t] = d;
    ++width[d];
    s.levels = std::max(s.levels, d);
  }
  for (const auto& [_, count] : width) s.max_level_width = std::max(s.max_level_width, count);

  for (TaskId id = 0; id < workflow.task_count(); ++id) {
    const Task& t = workflow.task(id);
    s.max_fan_in = std::max(s.max_fan_in, t.inputs.size());
    TypeSummary& ts = s.by_type[t.type];
    ++ts.count;
    ts.total_flops += t.flops;
    ts.max_requested_cores = std::max(ts.max_requested_cores, t.requested_cores);
    for (const FileId f : workflow.inputs(id)) ts.total_input_bytes += workflow.file(f).size;
    for (const FileId f : workflow.outputs(id)) ts.total_output_bytes += workflow.file(f).size;
  }
  for (FileId f = 0; f < workflow.file_count(); ++f) {
    s.max_fan_out = std::max(s.max_fan_out, workflow.consumers(f).size());
  }
  return s;
}

std::string describe(const Workflow& workflow) {
  const WorkflowSummary s = summarize(workflow);
  std::string out;
  out += util::format("workflow %s\n", workflow.name.c_str());
  out += util::format("  tasks %zu   files %zu   levels %zu (widest %zu)\n", s.tasks,
                      s.files, s.levels, s.max_level_width);
  out += util::format("  compute %.1f Tflop   data %s\n", s.total_flops / 1e12,
                      util::format_size(s.total_bytes).c_str());
  out += util::format("    inputs %s   intermediates %s   outputs %s\n",
                      util::format_size(s.input_bytes).c_str(),
                      util::format_size(s.intermediate_bytes).c_str(),
                      util::format_size(s.output_bytes).c_str());
  out += util::format("  max fan-in %zu files/task   max fan-out %zu readers/file\n",
                      s.max_fan_in, s.max_fan_out);
  out += "  task types:\n";
  for (const auto& [type, ts] : s.by_type) {
    out += util::format("    %-20s x%-5zu %8.1f Gflop/task  in %-10s out %s\n",
                        type.c_str(), ts.count,
                        ts.total_flops / ts.count / 1e9,
                        util::format_size(ts.total_input_bytes / ts.count).c_str(),
                        util::format_size(ts.total_output_bytes /
                                          std::max<std::size_t>(1, ts.count))
                            .c_str());
  }
  return out;
}

}  // namespace bbsim::wf
