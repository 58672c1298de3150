#include "fuzz/minimize.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace bbsim::fuzz {

namespace {

/// True when the candidate still shows a divergence. A candidate the
/// harness itself cannot evaluate (invalid DAG after surgery) counts as
/// not reproducing.
bool reproduces(const Scenario& candidate, const RunOptions& options) {
  try {
    return run_scenario(candidate, options).diverged;
  } catch (...) {
    return false;
  }
}

/// Rebuilds the workflow without `victim`: the task goes, so do the files
/// only it produced, every other task's input list is stripped of them, and
/// files nobody references anymore are dropped.
std::optional<Scenario> without_task(const Scenario& base, const std::string& victim) {
  if (base.workflow.task_count() <= 1) return std::nullopt;
  std::set<std::string> dropped_files(base.workflow.task(victim).outputs.begin(),
                                      base.workflow.task(victim).outputs.end());
  Scenario out = base;
  out.workflow = wf::Workflow{};
  out.workflow.name = base.workflow.name;

  std::set<std::string> referenced;
  for (wf::Task task : base.workflow.tasks()) {
    if (task.name == victim) continue;
    task.inputs.erase(std::remove_if(task.inputs.begin(), task.inputs.end(),
                                     [&](const std::string& f) {
                                       return dropped_files.count(f) > 0;
                                     }),
                      task.inputs.end());
    for (const std::string& f : task.inputs) referenced.insert(f);
    for (const std::string& f : task.outputs) referenced.insert(f);
    out.workflow.add_task(std::move(task));
  }
  for (const wf::File& f : base.workflow.files()) {
    if (dropped_files.count(f.name) > 0 || referenced.count(f.name) == 0) continue;
    out.workflow.add_file(f);
  }
  try {
    out.workflow.validate();
  } catch (...) {
    return std::nullopt;
  }
  return out;
}

/// Strips one workflow *input* file (no producer) from every consumer.
std::optional<Scenario> without_input_file(const Scenario& base,
                                           const std::string& victim) {
  Scenario out = base;
  out.workflow = wf::Workflow{};
  out.workflow.name = base.workflow.name;
  for (wf::Task task : base.workflow.tasks()) {
    task.inputs.erase(std::remove(task.inputs.begin(), task.inputs.end(), victim),
                      task.inputs.end());
    out.workflow.add_task(std::move(task));
  }
  for (const wf::File& f : base.workflow.files()) {
    if (f.name == victim) continue;
    out.workflow.add_file(f);
  }
  try {
    out.workflow.validate();
  } catch (...) {
    return std::nullopt;
  }
  return out;
}

int max_task_cores(const Scenario& sc) {
  int m = 1;
  for (const wf::Task& t : sc.workflow.tasks()) m = std::max(m, t.requested_cores);
  m = std::max(m, sc.config.force_cores);
  return m;
}

std::optional<Scenario> without_last_host(const Scenario& base) {
  if (base.platform.hosts.size() <= 1) return std::nullopt;
  Scenario out = base;
  out.platform.hosts.pop_back();
  int max_cores = 0;
  for (const platform::HostSpec& h : out.platform.hosts) {
    max_cores = std::max(max_cores, h.cores);
  }
  if (max_task_cores(out) > max_cores) return std::nullopt;
  // NodeLocalBB node counts track the host count.
  for (platform::StorageSpec& s : out.platform.storage) {
    if (s.kind == platform::StorageKind::NodeLocalBB) {
      s.num_nodes = static_cast<int>(out.platform.hosts.size());
    }
  }
  return out;
}

std::optional<Scenario> with_fewer_storage_nodes(const Scenario& base,
                                                std::size_t storage_idx) {
  const platform::StorageSpec& s = base.platform.storage[storage_idx];
  if (s.kind == platform::StorageKind::NodeLocalBB || s.num_nodes <= 1) {
    return std::nullopt;
  }
  Scenario out = base;
  out.platform.storage[storage_idx].num_nodes = s.num_nodes - 1;
  return out;
}

std::optional<Scenario> without_burst_buffer(const Scenario& base) {
  Scenario out = base;
  auto& storage = out.platform.storage;
  const auto it = std::find_if(storage.begin(), storage.end(),
                               [](const platform::StorageSpec& s) {
                                 return s.kind != platform::StorageKind::PFS;
                               });
  if (it == storage.end()) return std::nullopt;
  storage.erase(it);
  return out;
}

}  // namespace

Scenario minimize_scenario(const Scenario& failing, const RunOptions& options) {
  Scenario current = failing;
  bool changed = true;
  while (changed) {
    changed = false;

    // Tasks first: each removal deletes the most scenario surface.
    std::vector<std::string> names;
    for (const wf::Task& t : current.workflow.tasks()) names.push_back(t.name);
    for (const std::string& name : names) {
      const auto candidate = without_task(current, name);
      if (candidate && reproduces(*candidate, options)) {
        current = *candidate;
        changed = true;
      }
    }

    // Then unconsumed bytes: workflow input files.
    std::vector<std::string> inputs;
    for (const wf::FileId f : current.workflow.input_files()) {
      inputs.push_back(current.workflow.file(f).name);
    }
    for (const std::string& fname : inputs) {
      const auto candidate = without_input_file(current, fname);
      if (candidate && reproduces(*candidate, options)) {
        current = *candidate;
        changed = true;
      }
    }

    // Then the platform: hosts, storage nodes, the BB itself.
    while (true) {
      const auto candidate = without_last_host(current);
      if (candidate && reproduces(*candidate, options)) {
        current = *candidate;
        changed = true;
      } else {
        break;
      }
    }
    for (std::size_t s = 0; s < current.platform.storage.size(); ++s) {
      while (true) {
        const auto candidate = with_fewer_storage_nodes(current, s);
        if (candidate && reproduces(*candidate, options)) {
          current = *candidate;
          changed = true;
        } else {
          break;
        }
      }
    }
    {
      const auto candidate = without_burst_buffer(current);
      if (candidate && reproduces(*candidate, options)) {
        current = *candidate;
        changed = true;
      }
    }
  }
  return current;
}

}  // namespace bbsim::fuzz
