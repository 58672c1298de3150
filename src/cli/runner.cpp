#include "cli/runner.hpp"

#include <cstdio>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "exec/gantt.hpp"
#include "json/json.hpp"
#include "platform/platform_json.hpp"
#include "platform/presets.hpp"
#include "resil/fault.hpp"
#include "testbed/characterize.hpp"
#include "testbed/testbed.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workflow/clustering.hpp"
#include "workflow/describe.hpp"
#include "workflow/dot.hpp"
#include "workflow/genomes.hpp"
#include "workflow/swarp.hpp"
#include "workflow/wfformat.hpp"

namespace bbsim::cli {

namespace {

/// The emulated machine's options: --nodes, --seed and --reps.
testbed::TestbedOptions testbed_options(const CliOptions& options) {
  testbed::TestbedOptions topt;
  topt.compute_nodes = options.nodes;
  topt.seed = options.seed;
  topt.repetitions = options.repetitions;
  return topt;
}

}  // namespace

platform::PlatformSpec resolve_platform(const CliOptions& options) {
  if (options.testbed_system) {
    return testbed::testbed_platform(*options.testbed_system, testbed_options(options));
  }
  if (options.platform == "cori") {
    platform::PresetOptions popt;
    popt.compute_nodes = options.nodes;
    popt.bb_mode = options.bb_mode;
    return platform::cori_platform(popt);
  }
  if (options.platform == "summit") {
    platform::PresetOptions popt;
    popt.compute_nodes = options.nodes;
    return platform::summit_platform(popt);
  }
  return platform::load_platform(options.platform);
}

wf::Workflow resolve_workflow(const CliOptions& options) {
  if (options.workflow == "swarp") {
    wf::SwarpConfig cfg;
    cfg.pipelines = options.pipelines;
    if (options.cores > 0) cfg.cores_per_task = options.cores;
    return wf::make_swarp(cfg);
  }
  if (options.workflow == "genomes" || options.workflow == "1000genomes") {
    wf::GenomesConfig cfg;
    cfg.chromosomes = options.chromosomes;
    return wf::make_1000genomes(cfg);
  }
  return wf::load_workflow(options.workflow);
}

exec::ExecutionConfig execution_config(const CliOptions& options) {
  exec::ExecutionConfig cfg;
  cfg.placement = make_policy(options.policy);
  cfg.scheduler = options.scheduler;
  cfg.stage_in_mode = options.stage_in;
  cfg.stage_out = options.stage_out;
  cfg.bb_eviction = options.evict;
  cfg.stage_in_width = options.stage_width;
  cfg.collect_metrics = !options.metrics_path.empty();
  cfg.collect_timeline = !options.timeline_path.empty();
  cfg.profile = options.profile;
  cfg.audit = options.audit;
  cfg.critpath = options.critpath;
  cfg.faults = resil::FaultSpec::parse(options.faults);
  cfg.checkpoint = resil::CheckpointSpec::parse(options.checkpoint);
  if (options.cores > 0) cfg.force_cores = options.cores;
  return cfg;
}

exec::Result simulate(const CliOptions& options, const wf::Workflow& workflow,
                      const exec::ExecutionConfig& config, unsigned long long rep) {
  if (options.testbed_system) {
    const testbed::Testbed tb(*options.testbed_system, testbed_options(options));
    return tb.run_once(workflow, config, rep);
  }
  exec::Simulation sim(resolve_platform(options), workflow, config);
  return sim.run();
}

namespace {

void write_task_csv(const std::string& path, const exec::Result& result) {
  analysis::Table t({"task", "type", "host", "cores", "t_ready", "t_start",
                     "t_reads_done", "t_compute_done", "t_end", "bytes_read",
                     "bytes_written", "lambda_io"});
  for (const auto& [name, rec] : result.tasks) {
    t.add_row({name, rec.type, std::to_string(rec.host), std::to_string(rec.cores),
               util::format("%.6f", rec.t_ready), util::format("%.6f", rec.t_start),
               util::format("%.6f", rec.t_reads_done),
               util::format("%.6f", rec.t_compute_done),
               util::format("%.6f", rec.t_end), util::format("%.0f", rec.bytes_read),
               util::format("%.0f", rec.bytes_written),
               util::format("%.4f", rec.lambda_io())});
  }
  t.write_csv(path);
}

void print_resil_summary(const exec::Result& result, double baseline) {
  if (result.resil_stats == nullptr) return;
  const resil::RunStats& st = *result.resil_stats;
  std::printf("resilience      %d crash(es), %d kill(s), %d rollback(s), "
              "%d checkpoint(s)\n",
              st.node_crashes, st.tasks_killed, st.rollbacks,
              st.checkpoints_taken);
  std::printf("  wasted        %.1f core-s (lost %.1f + checkpoint %.1f + "
              "rework %.1f)\n",
              st.wasted_core_seconds(), st.lost_core_seconds,
              st.checkpoint_core_seconds, st.rework_core_seconds);
  if (st.checkpoint_bytes_written > 0) {
    std::printf("  checkpoints   wrote %s, drained %s, discarded %s\n",
                util::format_size(st.checkpoint_bytes_written).c_str(),
                util::format_size(st.checkpoint_bytes_drained).c_str(),
                util::format_size(st.checkpoint_bytes_discarded).c_str());
  }
  if (baseline > 0.0) {
    std::printf("  failure-free  %s (inflation %.3fx)\n",
                util::format_time(baseline).c_str(),
                result.makespan / baseline);
  }
}

void print_summary(const exec::Result& result, const CliOptions& options) {
  if (options.quiet) {
    std::printf("%.6f\n", result.makespan);
    return;
  }
  std::printf("makespan        %s\n", util::format_time(result.makespan).c_str());
  if (result.stage_in_duration > 0) {
    std::printf("  stage-in      %s\n",
                util::format_time(result.stage_in_duration).c_str());
  }
  if (result.stage_out_duration > 0) {
    std::printf("  stage-out     %s\n",
                util::format_time(result.stage_out_duration).c_str());
  }
  std::printf("  pipeline span %s\n", util::format_time(result.workflow_span).c_str());
  std::printf("tasks           %zu", result.tasks.size());
  if (result.demoted_writes > 0) {
    std::printf("  (demoted writes: %zu)", result.demoted_writes);
  }
  if (result.skipped_stage_files > 0) {
    std::printf("  (staging skipped: %zu)", result.skipped_stage_files);
  }
  if (result.evicted_files > 0) std::printf("  (evicted: %zu)", result.evicted_files);
  std::printf("\n");
  for (const exec::StorageCounters& s : result.storage) {
    std::printf("storage %-6s served %-10s at %s\n", s.service.c_str(),
                util::format_size(s.bytes_served).c_str(),
                util::format_bandwidth(s.achieved_bandwidth()).c_str());
  }
}

void print_critpath(const exec::Result& result) {
  if (result.critpath.is_null()) return;
  const json::Value& cp = result.critpath;
  std::printf("critical path   %s across %zu segment(s)\n",
              util::format_time(cp.at("path_length").as_number()).c_str(),
              cp.at("path").as_array().size());
  const json::Object& fractions = cp.at("blame_fractions").as_object();
  for (const auto& [key, value] : cp.at("blame").as_object()) {
    const double seconds = value.as_number();
    if (seconds <= 0.0) continue;
    std::printf("  %-16s %10s  (%.1f%%)\n", key.c_str(),
                util::format_time(seconds).c_str(),
                fractions.at(key).as_number() * 100.0);
  }
  for (const json::Value& w : cp.at("what_if").as_array()) {
    if (w.at("scenario").as_string() == "baseline") continue;
    std::printf("  what-if %-22s makespan %10s  (%.3fx speedup)\n",
                w.at("scenario").as_string().c_str(),
                util::format_time(w.at("makespan").as_number()).c_str(),
                w.at("speedup").as_number());
  }
}

void print_profile(const exec::Result& result) {
  if (result.profile.is_null()) return;
  std::printf("profile (wall-clock, nondeterministic):\n");
  for (const json::Value& s : result.profile.at("sections").as_array()) {
    std::printf("  %-14s %8.0f calls  total %.6fs  mean %.9fs  max %.9fs\n",
                s.at("name").as_string().c_str(), s.at("calls").as_number(),
                s.at("total_seconds").as_number(), s.at("mean_seconds").as_number(),
                s.at("max_seconds").as_number());
  }
}

}  // namespace

int run_cli(const CliOptions& options) {
  if (options.help) {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  wf::Workflow workflow = resolve_workflow(options);
  if (options.cluster) {
    wf::ClusteringResult clustered = wf::cluster_chains(workflow);
    if (!options.quiet) {
      std::printf("[cluster] merged %zu chains, internalised %zu files\n",
                  clustered.chains_merged, clustered.files_internalised);
    }
    workflow = std::move(clustered.workflow);
  }
  if (options.describe) std::fputs(wf::describe(workflow).c_str(), stdout);
  if (!options.dot_path.empty()) {
    wf::save_dot(options.dot_path, workflow);
    if (!options.quiet) std::printf("[dot] wrote %s\n", options.dot_path.c_str());
  }

  const exec::ExecutionConfig cfg = execution_config(options);

  std::vector<exec::Result> all_results;
  if (options.testbed_system) {
    const testbed::Testbed tb(*options.testbed_system, testbed_options(options));
    all_results = tb.run_repetitions(workflow, cfg, options.jobs);
    if (!options.quiet && options.repetitions > 1) {
      std::vector<double> makespans;
      for (const auto& r : all_results) makespans.push_back(r.makespan);
      const analysis::Stats s = analysis::describe(makespans);
      std::printf("testbed %s, %d repetitions: makespan %.2f ± %.2f s (cv %.1f%%)\n",
                  to_string(*options.testbed_system), options.repetitions, s.mean,
                  s.stddev, s.cv() * 100.0);
    }
  } else {
    all_results.push_back(simulate(options, workflow, cfg, 0));
  }
  const exec::Result& result = all_results.back();
  if (options.report) {
    std::fputs(testbed::characterization_report(all_results).c_str(), stdout);
  }

  // Failure-free twin: with faults active, re-run the same configuration
  // with the resil layer disabled to report makespan inflation against the
  // undisturbed schedule (under --testbed, of the reported repetition).
  double baseline_makespan = 0.0;
  if (cfg.faults.enabled()) {
    exec::ExecutionConfig twin_cfg = cfg;
    twin_cfg.faults = resil::FaultSpec{};
    twin_cfg.checkpoint = resil::CheckpointSpec{};
    twin_cfg.collect_metrics = false;
    twin_cfg.collect_timeline = false;
    twin_cfg.profile = false;
    twin_cfg.audit = false;
    twin_cfg.critpath = false;
    baseline_makespan = simulate(options, workflow, twin_cfg, all_results.size() - 1).makespan;
  }

  print_summary(result, options);
  if (!options.quiet) print_resil_summary(result, baseline_makespan);
  if (options.gantt) std::fputs(exec::render_gantt(result).c_str(), stdout);
  if (!options.trace_path.empty()) {
    json::Value doc = result.to_json();
    if (baseline_makespan > 0.0 && doc.contains("resil")) {
      // Stamp the twin's makespan into the bbsim.resil.v1 section so the
      // report is self-contained.
      json::Object& res = doc.as_object()["resil"].as_object();
      res.set("baseline_makespan", json::Value(baseline_makespan));
      res.set("makespan_inflation",
              json::Value(result.makespan / baseline_makespan));
    }
    json::write_file(options.trace_path, doc);
    if (!options.quiet) std::printf("[json] wrote %s\n", options.trace_path.c_str());
  }
  if (!options.csv_path.empty()) {
    write_task_csv(options.csv_path, result);
    if (!options.quiet) std::printf("[csv] wrote %s\n", options.csv_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    json::write_file(options.metrics_path, result.metrics);
    if (!options.quiet) {
      std::printf("[metrics] wrote %s\n", options.metrics_path.c_str());
    }
  }
  if (!options.timeline_path.empty()) {
    try {
      json::write_file(options.timeline_path, result.timeline->to_perfetto());
    } catch (const util::Error& e) {
      // Re-raise naming the flag so the failure is actionable from argv.
      throw util::ConfigError(std::string("--timeline-out: ") + e.what());
    }
    if (!options.quiet) {
      std::printf("[timeline] wrote %s\n", options.timeline_path.c_str());
    }
  }
  if (options.profile && !options.quiet) print_profile(result);
  if (options.critpath) {
    if (!options.quiet) print_critpath(result);
    if (!options.critpath_path.empty()) {
      json::write_file(options.critpath_path, result.critpath);
      if (!options.quiet) {
        std::printf("[critpath] wrote %s\n", options.critpath_path.c_str());
      }
    }
  }
  if (options.audit) {
    std::size_t violations = 0;
    for (const exec::Result& r : all_results) violations += r.audit_violations;
    if (!options.audit_path.empty()) {
      json::write_file(options.audit_path, result.audit);
      if (!options.quiet) {
        std::printf("[audit] wrote %s\n", options.audit_path.c_str());
      }
    }
    if (violations > 0) {
      std::fprintf(stderr, "bbsim_run: audit FAILED: %zu invariant violation(s)",
                   violations);
      std::size_t shown = 0;
      for (const exec::Result& r : all_results) {
        if (shown >= 5 || r.audit_violations == 0) continue;
        const json::Array& arr = r.audit.at("violations").as_array();
        for (std::size_t v = 0; v < arr.size() && shown < 5; ++v, ++shown) {
          std::fprintf(stderr, "\n  - [%s] %s",
                       arr[v].at("code").as_string().c_str(),
                       arr[v].at("message").as_string().c_str());
        }
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    if (!options.quiet) {
      std::printf("[audit] clean: all invariants held (%zu run%s)\n",
                  all_results.size(), all_results.size() == 1 ? "" : "s");
    }
  }
  return 0;
}

int main_impl(int argc, const char* const* argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    return run_cli(parse_cli(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbsim_run: %s\n", e.what());
    return 1;
  }
}

}  // namespace bbsim::cli
