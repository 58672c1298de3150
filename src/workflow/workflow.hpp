// bbsim -- the scientific workflow model.
//
// A workflow is a DAG in which vertices are tasks and edges are induced by
// the files tasks exchange (paper Section IV-A), plus optional explicit
// control dependencies. Each task carries its sequential compute work in
// flops and an Amdahl non-parallelisable fraction alpha; the calibration
// module (src/model) fills flops in from observed runtimes via the paper's
// Equations (1)-(4).
//
// Tasks and files are numbered by creation: TaskId / FileId is the position
// in tasks() / files(). Every structural query takes and returns ids, and
// the adjacency it reads is built once per structural change. Names are for
// the boundaries -- construction, parsers, storage, reports -- where
// task_id() / file_id() translate them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bbsim::wf {

/// Dense task id: the task's position in creation order.
using TaskId = std::uint32_t;
/// Dense file id: the file's position in creation order.
using FileId = std::uint32_t;

/// A data product exchanged between tasks.
struct File {
  std::string name;
  double size = 0.0;  ///< bytes
};

/// Task::type of a stage-in task: the engine copies the staged input files
/// from the PFS to the burst buffer in its place (paper Sec. III-D).
inline constexpr const char* kStageInType = "stage_in";

/// A workflow task (vertex).
struct Task {
  std::string name;
  std::string type;  ///< category, e.g. "resample", "combine", "individuals"
  /// Sequential compute work (flop), excluding all I/O -- the paper's
  /// T_c(1) times the reference core speed.
  double flops = 0.0;
  /// Amdahl non-parallelisable fraction (paper Eq. (2)); 0 = perfect speedup.
  double alpha = 0.0;
  /// Cores the task wants when scheduled (>= 1).
  int requested_cores = 1;
  std::vector<std::string> inputs;   ///< file names read
  std::vector<std::string> outputs;  ///< file names produced (single writer)
};

/// The task/file DAG with validation and structural queries.
class Workflow {
 public:
  std::string name = "workflow";

  // ------------------------------------------------------------- mutation
  /// Adds a file; re-adding the same name overwrites its size.
  void add_file(File file);
  /// Adds a task; duplicate names throw ConfigError. All referenced files
  /// must be added (before or after); validate() checks.
  void add_task(Task task);
  /// Explicit control dependency (edge without a file).
  void add_control_dep(const std::string& parent, const std::string& child);

  // ------------------------------------------------------- names and ids
  bool has_file(const std::string& file_name) const { return file_ids_.count(file_name) > 0; }
  bool has_task(const std::string& task_name) const { return task_ids_.count(task_name) > 0; }
  /// Id of a named task / file; throws NotFoundError.
  TaskId task_id(const std::string& task_name) const;
  FileId file_id(const std::string& file_name) const;
  /// Every id keyed by name: walk these where name order shows in output.
  const std::map<std::string, TaskId>& task_ids() const { return task_ids_; }
  const std::map<std::string, FileId>& file_ids() const { return file_ids_; }

  const Task& task(TaskId id) const { return tasks_[id]; }
  const File& file(FileId id) const { return files_[id]; }
  const Task& task(const std::string& task_name) const { return tasks_[task_id(task_name)]; }
  const File& file(const std::string& file_name) const { return files_[file_id(file_name)]; }
  /// The caller may change anything but the name.
  Task& task_mut(TaskId id) {
    index_dirty_ = true;  // inputs/outputs may change
    return tasks_[id];
  }

  /// Tasks / files in creation (= id) order.
  std::span<const Task> tasks() const { return tasks_; }
  std::span<const File> files() const { return files_; }
  std::size_t task_count() const { return tasks_.size(); }
  std::size_t file_count() const { return files_.size(); }

  // ------------------------------------------------------------ structure
  /// Producer task of a file, or nullopt for workflow inputs.
  std::optional<TaskId> producer(FileId file) const;
  /// Tasks that read the file, in task creation order.
  std::span<const TaskId> consumers(FileId file) const { return index().readers[file]; }
  /// Direct predecessors (file producers + control parents), de-duplicated,
  /// in the order their edges were found (see children()).
  std::span<const TaskId> parents(TaskId task) const { return index().parents[task]; }
  /// Direct successors: file edges first (task creation order, then input
  /// order), then control dependencies, de-duplicated.
  std::span<const TaskId> children(TaskId task) const { return index().children[task]; }
  /// Task::inputs / Task::outputs as ids, in the same order.
  std::span<const FileId> inputs(TaskId task) const { return index().inputs[task]; }
  std::span<const FileId> outputs(TaskId task) const { return index().outputs[task]; }
  /// Tasks with no parents.
  std::vector<TaskId> entry_tasks() const;
  /// Tasks with no children.
  std::vector<TaskId> exit_tasks() const;
  /// Files no task produces (must be pre-staged).
  std::vector<FileId> input_files() const;
  /// Files no task consumes (final products).
  std::vector<FileId> output_files() const;
  /// Files both produced and consumed.
  std::vector<FileId> intermediate_files() const;

  /// Kahn topological order; throws InvariantError when the graph has a
  /// cycle (naming one involved task).
  std::vector<TaskId> topological_order() const;

  /// Full structural validation: referenced files exist, single writer per
  /// file, control deps reference real tasks, acyclicity, positive sizes.
  /// Throws ConfigError / InvariantError.
  void validate() const;

  // ------------------------------------------------------------ aggregates
  double total_data_bytes() const;
  double total_flops() const;
  /// Sum of sizes of input_files().
  double input_data_bytes() const;

  /// Longest chain length in tasks (for scheduling lower bounds in tests).
  std::size_t critical_path_length() const;

 private:
  std::vector<Task> tasks_;
  std::vector<File> files_;
  std::map<std::string, TaskId> task_ids_;
  std::map<std::string, FileId> file_ids_;
  std::vector<std::pair<std::string, std::string>> control_deps_;

  // Adjacency by id, rebuilt when the structure changes. Building it
  // resolves every name, so it also performs validate()'s reference and
  // single-writer checks.
  static constexpr TaskId kNoTask = static_cast<TaskId>(-1);
  struct Index {
    std::vector<TaskId> producer;               ///< per file; kNoTask = input
    std::vector<std::vector<TaskId>> readers;   ///< per file
    std::vector<std::vector<TaskId>> parents;   ///< per task
    std::vector<std::vector<TaskId>> children;  ///< per task
    std::vector<std::vector<FileId>> inputs;    ///< per task
    std::vector<std::vector<FileId>> outputs;   ///< per task
  };
  mutable Index index_;
  mutable bool index_dirty_ = true;
  const Index& index() const;
};

}  // namespace bbsim::wf
