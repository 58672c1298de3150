#include "cli/sweep_cli.hpp"

#include <cstdio>
#include <filesystem>
#include <set>

#include "batch/payload.hpp"
#include "batch/report.hpp"
#include "cli/batch_cli.hpp"
#include "cli/runner.hpp"
#include "exec/placement.hpp"
#include "sweep/report.hpp"
#include "testbed/testbed.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workflow/clustering.hpp"

namespace bbsim::cli {

using util::ConfigError;

std::string sweep_usage() {
  return R"(bbsim_sweep -- run a multi-configuration study in parallel from a JSON spec

usage: bbsim_sweep SPEC.json [options]

The spec names a base configuration and axes of bbsim_run flag values; the
cross product (x repetitions) is executed concurrently and aggregated into
one deterministic JSON report (schema bbsim.sweep.v1). See docs/sweeps.md.

Options:
  --jobs N           worker threads (default: 1 = serial; 0 = all hardware
                     threads). Results are identical for any N.
  --out FILE.json    write the report to FILE (default: stdout)
  --timeline-dir DIR write one Chrome/Perfetto timeline JSON per run that
                     sets "timeline": true in the spec (file name = the
                     sanitised run name). Requires --jobs 1: timelines are
                     a deep-dive tool, not a campaign-scale output.
  --timings          embed per-run host wall times in the report (makes the
                     report nondeterministic; off by default)
  --audit            verify simulation invariants in every run; per-run
                     violation counts land in the report and any violation
                     makes the sweep exit non-zero (a spec can also opt
                     single runs in with "audit": true)
  --cancel-on-error  skip runs that have not started once one run fails
                     (default: keep going and report every failure)
  --quiet            no per-run progress lines on stderr
  --help
)";
}

SweepCliOptions parse_sweep_cli(const std::vector<std::string>& args) {
  SweepCliOptions opt;
  std::size_t i = 0;
  auto next_value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) throw ConfigError("missing value for " + flag);
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      opt.help = true;
    } else if (a == "--jobs") {
      opt.jobs = util::to_integer<int>(next_value(a), a);
    } else if (a == "--out") {
      opt.out_path = next_value(a);
    } else if (a == "--timeline-dir") {
      opt.timeline_dir = next_value(a);
    } else if (a == "--timings") {
      opt.timings = true;
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--cancel-on-error") {
      opt.cancel_on_error = true;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      throw ConfigError("unknown argument '" + a + "' (try --help)");
    } else if (opt.spec_path.empty()) {
      opt.spec_path = a;
    } else {
      throw ConfigError("more than one spec file given ('" + opt.spec_path +
                        "' and '" + a + "')");
    }
  }
  if (opt.jobs < 0) throw ConfigError("--jobs must be >= 0 (0 = all hardware threads)");
  if (!opt.timeline_dir.empty() && opt.jobs != 1) {
    throw ConfigError("--timeline-dir requires --jobs 1");
  }
  if (!opt.help && opt.spec_path.empty()) {
    throw ConfigError("no sweep spec given (usage: bbsim_sweep SPEC.json)");
  }
  return opt;
}

namespace {

/// Flags whose effects make no sense per sweep run (file outputs would
/// collide across runs; reps/jobs belong to the sweep itself).
const std::set<std::string>& forbidden_keys() {
  static const std::set<std::string> keys = {
      "trace", "csv",   "dot",    "metrics-out", "audit-out", "gantt",
      "describe", "report", "quiet", "help",  "jobs",        "reps",
      "timeline-out", "profile", "critpath-out"};
  return keys;
}

/// Run names embed '=', ',', ':' and '#'; keep [A-Za-z0-9._-] for file names.
std::string sanitise_run_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    if (!keep) c = '_';
  }
  return out;
}

/// True when this run's settings opt into timeline recording
/// ("timeline": true in the spec's base or on an axis).
bool wants_timeline(const json::Object& settings) {
  const json::Value* flag = settings.find("timeline");
  return flag != nullptr && flag->is_bool() && flag->as_bool();
}

/// Translate one expanded run's settings into a bbsim_run argv and parse
/// it with parse_cli -- the sweep-spec schema *is* the bbsim_run flag set.
CliOptions options_from_settings(const json::Object& settings) {
  std::vector<std::string> argv;
  for (const auto& [key, value] : settings) {
    if (key == "metrics") continue;   // sweep-level switch, handled below
    if (key == "timeline") continue;  // per-run switch, handled by the caller
    if (forbidden_keys().count(key) > 0) {
      throw ConfigError("sweep spec: '" + key + "' is not allowed inside a sweep" +
                        (key == "reps" ? " (use top-level \"repetitions\")" : ""));
    }
    if (value.is_bool()) {
      if (value.as_bool()) argv.push_back("--" + key);
    } else {
      argv.push_back("--" + key);
      argv.push_back(sweep::settings_value_to_string(value));
    }
  }
  return parse_cli(argv);
}

/// True when this run dispatches to the batch fleet simulator instead of a
/// single-workflow bbsim_run ("tool": "batch" in the spec's base or on an
/// axis). Only "batch" is recognised; other values are an error.
bool is_batch_run(const json::Object& settings) {
  const json::Value* tool = settings.find("tool");
  if (tool == nullptr) return false;
  if (!tool->is_string() || tool->as_string() != "batch") {
    throw ConfigError("sweep spec: unknown \"tool\" value " + tool->dump() +
                      " (only \"batch\" is supported)");
  }
  return true;
}

/// Per-run file outputs collide across a sweep, exactly as for bbsim_run.
const std::set<std::string>& batch_forbidden_keys() {
  static const std::set<std::string> keys = {"report-out",   "report-jobs",
                                             "jobs-out",     "timeline-out",
                                             "audit-out",    "critpath-out",
                                             "quiet",        "help"};
  return keys;
}

/// Translate one batch run's settings into a bbsim_batch argv and parse it
/// with parse_batch_cli -- the batch sweep schema *is* the bbsim_batch flag
/// set, minus the per-run file outputs.
BatchCliOptions batch_options_from_settings(const json::Object& settings) {
  std::vector<std::string> argv;
  for (const auto& [key, value] : settings) {
    if (key == "tool") continue;      // the dispatch switch itself
    if (key == "metrics") continue;   // sweep-level switch, handled below
    if (key == "timeline") continue;  // per-run switch, handled by the caller
    if (batch_forbidden_keys().count(key) > 0) {
      throw ConfigError("sweep spec: '" + key +
                        "' is not allowed inside a batch sweep");
    }
    if (value.is_bool()) {
      if (value.as_bool()) argv.push_back("--" + key);
    } else {
      argv.push_back("--" + key);
      argv.push_back(sweep::settings_value_to_string(value));
    }
  }
  return parse_batch_cli(argv);
}

/// Export one finished run's timeline into --timeline-dir (no-op when the
/// run did not record one).
void write_run_timeline(exec::Result& result, const std::string& run_name,
                        const std::string& dir) {
  if (result.timeline == nullptr) return;
  if (dir.empty()) {
    throw ConfigError("sweep spec sets \"timeline\": true but no --timeline-dir "
                      "was given");
  }
  json::write_file(dir + "/" + sanitise_run_name(run_name) + ".json",
                   result.timeline->to_perfetto());
  result.timeline.reset();  // exported; don't hold every timeline in memory
}

/// Execute one "tool": "batch" run: the whole fleet simulation becomes one
/// sweep data point. The fleet makespan lands in Result::makespan and the
/// full single-policy bbsim.batch.v1 report rides in Result::metrics, so
/// the sweep report carries every fleet metric per run.
exec::Result execute_batch_run(const sweep::ExpandedRun& run, bool collect_metrics,
                               bool force_audit, const std::string& timeline_dir) {
  const BatchCliOptions opt = batch_options_from_settings(run.settings);
  const std::vector<batch::Policy> policies = resolve_policies(opt.policy);
  if (policies.size() != 1) {
    throw ConfigError("sweep spec: a batch run needs a single policy -- put "
                      "\"policy\" on an axis instead of using \"all\"");
  }
  batch::MachineSpec machine;
  machine.nodes = opt.nodes;
  machine.bb_bytes = opt.bb_capacity;
  machine.bb_granule = opt.bb_granule;

  batch::JobStream stream;
  if (!opt.jobs_path.empty()) {
    stream = batch::load_jobs_file(opt.jobs_path);
    batch::validate_stream(stream, machine.nodes, machine.bb_bytes);
  } else {
    stream = batch::make_stream(stream_config_from(opt));
  }
  batch::resolve_payloads(stream);

  batch::SchedulerConfig cfg;
  cfg.policy = policies.front();
  cfg.tau = opt.tau;
  cfg.collect_metrics = collect_metrics;
  cfg.collect_timeline = wants_timeline(run.settings);
  cfg.audit = opt.audit || force_audit;

  batch::FleetResult fleet = batch::run_scheduler(machine, stream, cfg);
  exec::Result result;
  result.makespan = fleet.makespan;
  result.workflow_span = fleet.makespan;
  result.audit = fleet.audit;
  result.audit_violations = fleet.audit_violations;
  result.timeline = fleet.timeline;
  result.metrics = batch::batch_report(stream, machine, opt.tau,
                                       {std::move(fleet)}, false);
  write_run_timeline(result, run.name, timeline_dir);
  return result;
}

/// Execute one expanded run on a fully isolated simulation stack.
exec::Result execute_run(const sweep::ExpandedRun& run, bool collect_metrics,
                         bool force_audit, const std::string& timeline_dir) {
  if (is_batch_run(run.settings)) {
    return execute_batch_run(run, collect_metrics, force_audit, timeline_dir);
  }
  const CliOptions opt = options_from_settings(run.settings);
  wf::Workflow workflow = resolve_workflow(opt);
  if (opt.cluster) workflow = wf::cluster_chains(workflow).workflow;

  exec::ExecutionConfig cfg = execution_config(opt);
  cfg.collect_metrics = collect_metrics;
  cfg.collect_trace = false;  // sweeps aggregate records, not event traces
  cfg.collect_timeline = wants_timeline(run.settings);
  if (force_audit) cfg.audit = true;  // a spec's "audit": true is kept either way

  if (opt.testbed_system) {
    // The repetition index salts the emulator's noise streams, exactly as
    // Testbed::run_repetitions does for its serial loop.
    double hint = -1.0;
    if (const auto* fraction =
            dynamic_cast<const exec::FractionPolicy*>(cfg.placement.get())) {
      hint = fraction->input_fraction();
    }
    testbed::TestbedOptions topt;
    topt.compute_nodes = opt.nodes;
    topt.seed = opt.seed;
    topt.repetitions = 1;
    const testbed::Testbed tb(*opt.testbed_system, topt);
    exec::Result result = tb.run_once(
        workflow, cfg, static_cast<unsigned long long>(run.repetition), hint);
    write_run_timeline(result, run.name, timeline_dir);
    return result;
  }
  exec::Simulation sim(resolve_platform(opt), workflow, cfg);
  exec::Result result = sim.run();
  write_run_timeline(result, run.name, timeline_dir);
  return result;
}

}  // namespace

std::vector<sweep::RunOutcome> execute_sweep_spec(const sweep::SweepSpec& spec,
                                                  const SweepCliOptions& options) {
  const bool collect_metrics = [&spec] {
    const json::Value* flag = spec.base.find("metrics");
    return flag != nullptr && flag->is_bool() && flag->as_bool();
  }();

  const std::vector<sweep::ExpandedRun> runs = sweep::expand(spec);
  if (options.timeline_dir.empty()) {
    // Fail before running anything, not on the first finished run.
    for (const sweep::ExpandedRun& run : runs) {
      if (wants_timeline(run.settings)) {
        throw ConfigError("sweep spec sets \"timeline\": true but no "
                          "--timeline-dir was given");
      }
    }
  } else {
    std::filesystem::create_directories(options.timeline_dir);
  }
  std::vector<sweep::RunSpec> specs;
  specs.reserve(runs.size());
  for (const sweep::ExpandedRun& run : runs) {
    specs.push_back(sweep::RunSpec{run.name, [&run, collect_metrics, &options] {
                                     return execute_run(run, collect_metrics,
                                                        options.audit,
                                                        options.timeline_dir);
                                   }});
  }

  sweep::SweepOptions sopt;
  sopt.jobs = options.jobs;
  sopt.cancel_on_error = options.cancel_on_error;
  if (!options.quiet) {
    sopt.on_progress = [](const sweep::Progress& p) {
      std::fprintf(stderr, "[%zu/%zu] %s %s\n", p.finished, p.total, p.name.c_str(),
                   p.ok ? "ok" : "FAILED");
    };
  }
  return sweep::SweepRunner(sopt).run(specs);
}

json::Value run_sweep_to_json(const sweep::SweepSpec& spec,
                              const SweepCliOptions& options) {
  return sweep::sweep_report(spec.name, execute_sweep_spec(spec, options),
                             options.timings);
}

int run_sweep_cli(const SweepCliOptions& options) {
  if (options.help) {
    std::fputs(sweep_usage().c_str(), stdout);
    return 0;
  }
  sweep::SweepSpec spec = sweep::load_sweep_spec(options.spec_path);
  if (spec.name.empty()) spec.name = options.spec_path;  // untitled: use the file
  const std::vector<sweep::RunOutcome> outcomes = execute_sweep_spec(spec, options);
  const json::Value report = sweep::sweep_report(spec.name, outcomes, options.timings);
  if (options.out_path.empty()) {
    std::fputs((report.dump(2) + "\n").c_str(), stdout);
  } else {
    json::write_file(options.out_path, report);
    if (!options.quiet) {
      std::fprintf(stderr, "[json] wrote %s\n", options.out_path.c_str());
    }
  }
  for (const sweep::RunOutcome& o : outcomes) {
    if (!o.ok && !o.skipped) return 1;
  }
  std::size_t violations = 0;
  for (const sweep::RunOutcome& o : outcomes) {
    if (o.ok) violations += o.result.audit_violations;
  }
  if (violations > 0) {
    std::fprintf(stderr, "bbsim_sweep: audit FAILED: %zu invariant violation(s)\n",
                 violations);
    return 1;
  }
  return 0;
}

int sweep_main_impl(int argc, const char* const* argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    return run_sweep_cli(parse_sweep_cli(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbsim_sweep: %s\n", e.what());
    return 1;
  }
}

}  // namespace bbsim::cli
