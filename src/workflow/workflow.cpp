#include "workflow/workflow.hpp"

#include <algorithm>

namespace bbsim::wf {

using util::ConfigError;
using util::InvariantError;
using util::NotFoundError;

namespace {
/// The ids in [0, n) that satisfy `keep`, ascending.
template <typename Keep>
std::vector<std::uint32_t> ids_where(std::size_t n, Keep keep) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (keep(id)) out.push_back(id);
  }
  return out;
}
}  // namespace

void Workflow::add_file(File file) {
  if (file.name.empty()) throw ConfigError("file with empty name");
  if (file.size < 0) throw ConfigError("file '" + file.name + "': negative size");
  const auto [it, inserted] =
      file_ids_.try_emplace(file.name, static_cast<FileId>(files_.size()));
  if (inserted) {
    files_.push_back(std::move(file));
  } else {
    files_[it->second].size = file.size;
  }
  index_dirty_ = true;
}

void Workflow::add_task(Task task) {
  if (task.name.empty()) throw ConfigError("task with empty name");
  if (task_ids_.count(task.name) > 0) throw ConfigError("duplicate task '" + task.name + "'");
  if (task.requested_cores < 1) {
    throw ConfigError("task '" + task.name + "': requested_cores must be >= 1");
  }
  if (task.flops < 0) throw ConfigError("task '" + task.name + "': negative flops");
  if (task.alpha < 0 || task.alpha > 1) {
    throw ConfigError("task '" + task.name + "': alpha must be in [0, 1]");
  }
  task_ids_.emplace(task.name, static_cast<TaskId>(tasks_.size()));
  tasks_.push_back(std::move(task));
  index_dirty_ = true;
}

void Workflow::add_control_dep(const std::string& parent, const std::string& child) {
  control_deps_.emplace_back(parent, child);
  index_dirty_ = true;
}

TaskId Workflow::task_id(const std::string& task_name) const {
  const auto it = task_ids_.find(task_name);
  if (it == task_ids_.end()) throw NotFoundError("task '" + task_name + "'");
  return it->second;
}

FileId Workflow::file_id(const std::string& file_name) const {
  const auto it = file_ids_.find(file_name);
  if (it == file_ids_.end()) throw NotFoundError("file '" + file_name + "'");
  return it->second;
}

const Workflow::Index& Workflow::index() const {
  if (!index_dirty_) return index_;
  Index idx;
  const auto task_count = static_cast<TaskId>(tasks_.size());
  // Resolve every file reference; `written` marks the current task's outputs.
  idx.inputs.resize(task_count);
  idx.outputs.resize(task_count);
  std::vector<TaskId> written(files_.size(), kNoTask);
  for (TaskId t = 0; t < task_count; ++t) {
    const Task& task = tasks_[t];
    const auto resolve = [&](const std::string& f, const char* verb) {
      const auto it = file_ids_.find(f);
      if (it == file_ids_.end()) {
        throw ConfigError("task '" + task.name + "' " + verb + " unknown file '" + f + "'");
      }
      return it->second;
    };
    for (const std::string& f : task.inputs) idx.inputs[t].push_back(resolve(f, "reads"));
    for (const std::string& f : task.outputs) {
      idx.outputs[t].push_back(resolve(f, "writes"));
      written[idx.outputs[t].back()] = t;
    }
    for (const FileId f : idx.inputs[t]) {
      if (written[f] == t) {
        throw ConfigError("task '" + task.name + "' both reads and writes file '" +
                          files_[f].name + "'");
      }
    }
  }
  std::vector<std::pair<TaskId, TaskId>> control;
  for (const auto& [parent, child] : control_deps_) {
    const auto p = task_ids_.find(parent);
    const auto c = task_ids_.find(child);
    if (p == task_ids_.end() || c == task_ids_.end()) {
      throw ConfigError("control dependency references unknown task ('" + parent +
                        "' -> '" + child + "')");
    }
    control.emplace_back(p->second, c->second);
  }

  idx.producer.assign(files_.size(), kNoTask);
  idx.readers.resize(files_.size());
  for (TaskId t = 0; t < task_count; ++t) {
    for (const FileId f : idx.outputs[t]) {
      if (idx.producer[f] != kNoTask && idx.producer[f] != t) {
        throw InvariantError("file '" + files_[f].name + "' written by both '" +
                             tasks_[idx.producer[f]].name + "' and '" + tasks_[t].name +
                             "'");
      }
      idx.producer[f] = t;
    }
    for (const FileId f : idx.inputs[t]) idx.readers[f].push_back(t);
  }

  idx.parents.resize(task_count);
  idx.children.resize(task_count);
  const auto add_edge = [&idx](TaskId parent, TaskId child) {
    std::vector<TaskId>& kids = idx.children[parent];
    if (std::find(kids.begin(), kids.end(), child) == kids.end()) {
      kids.push_back(child);
      idx.parents[child].push_back(parent);
    }
  };
  for (TaskId t = 0; t < task_count; ++t) {
    for (const FileId f : idx.inputs[t]) {
      const TaskId p = idx.producer[f];
      if (p != kNoTask && p != t) add_edge(p, t);
    }
  }
  for (const auto& [parent, child] : control) add_edge(parent, child);
  index_ = std::move(idx);
  index_dirty_ = false;
  return index_;
}

std::optional<TaskId> Workflow::producer(FileId file) const {
  const TaskId p = index().producer[file];
  if (p == kNoTask) return std::nullopt;
  return p;
}

std::vector<TaskId> Workflow::entry_tasks() const {
  const Index& idx = index();
  return ids_where(tasks_.size(), [&idx](TaskId t) { return idx.parents[t].empty(); });
}

std::vector<TaskId> Workflow::exit_tasks() const {
  const Index& idx = index();
  return ids_where(tasks_.size(), [&idx](TaskId t) { return idx.children[t].empty(); });
}

std::vector<FileId> Workflow::input_files() const {
  const Index& idx = index();
  return ids_where(files_.size(), [&idx](FileId f) {
    return idx.producer[f] == kNoTask && !idx.readers[f].empty();
  });
}

std::vector<FileId> Workflow::output_files() const {
  const Index& idx = index();
  return ids_where(files_.size(), [&idx](FileId f) {
    return idx.producer[f] != kNoTask && idx.readers[f].empty();
  });
}

std::vector<FileId> Workflow::intermediate_files() const {
  const Index& idx = index();
  return ids_where(files_.size(), [&idx](FileId f) {
    return idx.producer[f] != kNoTask && !idx.readers[f].empty();
  });
}

std::vector<TaskId> Workflow::topological_order() const {
  const Index& idx = index();
  std::vector<std::size_t> in_degree(tasks_.size());
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    in_degree[t] = idx.parents[t].size();
    if (in_degree[t] == 0) order.push_back(t);
  }
  // `order` doubles as the FIFO queue: its unvisited tail is the ready set.
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const TaskId c : idx.children[order[head]]) {
      if (--in_degree[c] == 0) order.push_back(c);
    }
  }
  if (order.size() != tasks_.size()) {
    for (const auto& [task_name, t] : task_ids_) {
      if (in_degree[t] > 0) {
        throw InvariantError("workflow '" + name + "' has a cycle involving task '" +
                             task_name + "'");
      }
    }
  }
  return order;
}

void Workflow::validate() const {
  (void)index();              // file and task references, single writer
  (void)topological_order();  // acyclicity
}

// The sums run in name order: floating-point addition is not associative,
// and the reports print these sums.
double Workflow::total_data_bytes() const {
  double total = 0;
  for (const auto& [_, f] : file_ids_) total += files_[f].size;
  return total;
}

double Workflow::total_flops() const {
  double total = 0;
  for (const auto& [_, t] : task_ids_) total += tasks_[t].flops;
  return total;
}

double Workflow::input_data_bytes() const {
  double total = 0;
  for (const FileId f : input_files()) total += files_[f].size;
  return total;
}

std::size_t Workflow::critical_path_length() const {
  std::vector<std::size_t> depth(tasks_.size(), 0);
  std::size_t longest = 0;
  for (const TaskId t : topological_order()) {
    std::size_t d = 1;
    for (const TaskId p : parents(t)) d = std::max(d, depth[p] + 1);
    depth[t] = d;
    longest = std::max(longest, d);
  }
  return longest;
}

}  // namespace bbsim::wf
