/// \file
/// bbsim::cli -- command-line options for the bbsim_run driver: every
/// platform x workflow x policy x testbed combination from the paper's
/// experiments (Sections III-IV) expressed as flags, including metrics
/// export (--metrics-out) and parallel testbed repetitions (--reps/--jobs).
///
/// Parsing lives in the library (not the binary) so it is unit-testable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "testbed/testbed.hpp"

namespace bbsim::cli {

struct CliOptions {
  // Platform selection: a preset name or a JSON file path.
  std::string platform = "cori";
  platform::BBMode bb_mode = platform::BBMode::Private;
  int nodes = 1;

  // Workflow selection: a generator name or a JSON file path.
  std::string workflow = "swarp";
  int pipelines = 1;
  int chromosomes = 22;
  int cores = 0;  ///< 0 = workflow defaults

  // Execution.
  std::string policy = "all_bb";
  exec::SchedulerPolicy scheduler = exec::SchedulerPolicy::Fcfs;
  exec::StageInMode stage_in = exec::StageInMode::Task;
  int stage_width = 1;
  bool stage_out = false;
  bool evict = false;
  bool cluster = false;  ///< merge linear task chains before running

  // Resilience: raw --faults / --checkpoint specs (validated at parse time,
  // re-parsed into the ExecutionConfig by the runner). Empty = disabled,
  // leaving the engine bitwise-identical to a run without the resil layer.
  std::string faults;
  std::string checkpoint;

  // Emulated "real machine" mode.
  std::optional<testbed::System> testbed_system;
  int repetitions = 1;
  unsigned long long seed = 42;

  // Parallelism: worker threads for independent repetitions / sweep runs
  // (1 = serial, 0 = one per hardware thread). Never changes results.
  int jobs = 1;

  // Outputs.
  std::string trace_path;    ///< result JSON
  std::string csv_path;      ///< per-task CSV
  std::string dot_path;      ///< workflow DOT
  std::string metrics_path;  ///< metrics registry JSON (enables collection)
  std::string timeline_path; ///< Perfetto timeline JSON (enables recording)
  bool profile = false;      ///< wall-clock self-profiling (nondeterministic)
  bool audit = false;        ///< run the invariant auditor alongside the run
  std::string audit_path;    ///< audit report JSON (implies audit)
  bool critpath = false;     ///< critical-path / blame-attribution pass
  std::string critpath_path; ///< critpath report JSON (requires --critpath)
  bool gantt = false;
  bool describe = false;  ///< print the workflow structure summary
  bool report = false;    ///< print the per-type characterization report
  bool quiet = false;
  bool help = false;
};

/// Parses argv (argv[0] is skipped). Throws util::ConfigError on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

/// Builds a placement policy from its --policy spec, e.g. "fraction:0.5",
/// "size:64MB", "greedy:4GB", "all_pfs". Throws util::ConfigError.
using exec::make_policy;

}  // namespace bbsim::cli
