/// \file
/// bbsim::cli -- the bbsim_batch driver (library side, testable): runs a
/// job stream -- loaded from a bbsim.jobs.v1 file or generated
/// synthetically -- through one or all batch scheduling policies on a
/// two-resource machine (nodes + burst buffer) and reports the fleet
/// metrics (bbsim.batch.v1). See docs/batch.md for the worked example.
#pragma once

#include <string>
#include <vector>

#include "batch/generator.hpp"
#include "batch/scheduler.hpp"

namespace bbsim::cli {

struct BatchCliOptions {
  // Stream selection: a bbsim.jobs.v1 file xor a synthetic stream.
  std::string jobs_path;       ///< --jobs-file FILE
  std::size_t gen_count = 0;   ///< --gen N (0 = not requested)

  // Generator knobs (only meaningful with --gen).
  double load = 0.85;               ///< --load F
  std::string arrival = "poisson";  ///< --arrival poisson|weibull[:SHAPE]
  double estimate_factor = 3.0;     ///< --estimate-factor F (1 = exact)
  int max_job_nodes = 16;           ///< --max-job-nodes N
  unsigned long long seed = 42;     ///< --seed N

  // The machine.
  int nodes = 32;                ///< --nodes N
  double bb_capacity = 6.4e12;   ///< --bb-capacity SIZE
  double bb_granule = 0.0;       ///< --bb-granule SIZE (0 = byte-granular)

  // Scheduling.
  std::string policy = "easy";   ///< --policy fcfs|easy|conservative|plan|all
  double tau = 10.0;             ///< --tau SECONDS (bounded-slowdown floor)
  /// --faults SPEC: seeded node-outage process (node_mtbf / node_shape /
  /// node_repair / seed / horizon keys of the resil spec). Empty = off,
  /// keeping results bitwise-identical to a faultless build.
  std::string faults;

  // Outputs.
  std::string report_path;    ///< --report-out FILE (bbsim.batch.v1)
  bool report_jobs = false;   ///< --report-jobs (embed per-job records)
  std::string jobs_out;       ///< --jobs-out FILE (dump the stream used)
  std::string timeline_path;  ///< --timeline-out FILE (single policy only)
  bool metrics = false;       ///< --metrics (embed bbsim.metrics.v1 per run)
  bool audit = false;         ///< --audit (reservation ledger + lifecycle)
  std::string audit_path;     ///< --audit-out FILE (implies --audit)
  bool critpath = false;      ///< --critpath (embed blame split per run)
  std::string critpath_path;  ///< --critpath-out FILE (requires --critpath)
  bool quiet = false;
  bool help = false;
};

/// Parses argv (argv[0] skipped). Throws util::ConfigError on bad input.
BatchCliOptions parse_batch_cli(const std::vector<std::string>& args);

/// The --help text.
std::string batch_usage();

/// The policies a --policy value selects ("all" = every implemented one).
std::vector<batch::Policy> resolve_policies(const std::string& spec);

/// Build the generator config the options describe.
batch::StreamConfig stream_config_from(const BatchCliOptions& options);

/// Everything a fleet run needs but its policy, as the options describe it.
struct FleetSetup {
  batch::MachineSpec machine;
  batch::JobStream stream;          ///< validated, payloads resolved
  std::size_t payloads_resolved = 0;
  batch::SchedulerConfig config;    ///< tau, metrics, timeline, audit, faults
};

/// Check the machine, load or generate the stream, resolve its workflow
/// payloads and build the scheduler config. Throws util::ConfigError.
FleetSetup fleet_setup(const BatchCliOptions& options);

/// Run everything; returns the process exit code (1 on audit violations).
int run_batch_cli(const BatchCliOptions& options);

/// Entry point used by tools/bbsim_batch_main.cpp.
int batch_main_impl(int argc, const char* const* argv);

}  // namespace bbsim::cli
