/// \file
/// bbsim::cli -- the bbsim_run driver logic (library side, testable):
/// resolves parsed options into a platform + workflow + execution config,
/// runs one simulation or testbed campaign (the single-run building block
/// of the paper's Section III/IV experiments) and writes the requested
/// outputs (trace/CSV/DOT/Gantt/metrics/report).
#pragma once

#include <string>

#include "cli/options.hpp"
#include "exec/trace.hpp"
#include "platform/spec.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::cli {

/// Resolve the platform selection (preset name or JSON path).
platform::PlatformSpec resolve_platform(const CliOptions& options);

/// Resolve the workflow selection (generator name or JSON path).
wf::Workflow resolve_workflow(const CliOptions& options);

/// Build the execution config the options describe (placement policy,
/// scheduler, staging, metrics collection).
exec::ExecutionConfig execution_config(const CliOptions& options);

/// Run `workflow` once: repetition `rep` of the --testbed emulator, or one
/// exec::Simulation on resolve_platform(options) without --testbed.
exec::Result simulate(const CliOptions& options, const wf::Workflow& workflow,
                      const exec::ExecutionConfig& config, unsigned long long rep);

/// Run the whole thing; returns the process exit code. Output goes to
/// stdout (and to the files requested in options).
int run_cli(const CliOptions& options);

/// Entry point used by tools/bbsim_run_main.cpp: parses, runs, reports
/// errors on stderr.
int main_impl(int argc, const char* const* argv);

}  // namespace bbsim::cli
