#include "cli/batch_cli.hpp"

#include <cstdint>
#include <cstdio>
#include <string>

#include "batch/payload.hpp"
#include "batch/report.hpp"
#include "resil/fault.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::cli {

using util::ConfigError;

std::string batch_usage() {
  return R"(bbsim_batch -- multi-tenant fleet simulation: a job stream through a
two-resource batch scheduler (compute nodes + shared burst buffer)

usage: bbsim_batch (--jobs-file FILE | --gen N) [options]

A job starts only when BOTH its node count and its BB reservation fit.
Policies: fcfs, easy (EASY backfilling), conservative (backfilling with a
reservation per queued job), plan (ordering lookahead). See docs/batch.md.

Stream:
  --jobs-file FILE     load a bbsim.jobs.v1 stream
  --gen N              generate a synthetic stream of N jobs
  --load F             generator: target machine load (default 0.85)
  --arrival KIND       generator: poisson | weibull[:SHAPE] interarrivals
                       (default poisson; weibull default shape 0.6 = bursty)
  --estimate-factor F  generator: estimates up to F x actual (default 3;
                       1 = exact estimates)
  --max-job-nodes N    generator: largest job width (default 16)
  --seed N             generator seed (default 42)

Machine:
  --nodes N            compute nodes (default 32)
  --bb-capacity SIZE   burst-buffer pool, e.g. 6.4TB (default 6.4TB)
  --bb-granule SIZE    BB allocation granule, e.g. 20GiB (default 0 = byte-
                       granular; rounding waste is reported as internal
                       fragmentation)

Scheduling:
  --policy P           fcfs | easy | conservative | plan | all
                       (default easy; all = compare every policy)
  --tau SECONDS        bounded-slowdown runtime floor (default 10)
  --faults SPEC        seeded node-outage process, key=value pairs
                       (node_mtbf / node_shape / node_repair / seed /
                       horizon -- see bbsim_run --help). An outage takes
                       one node down for node_repair seconds; on a full
                       machine the youngest running job is killed and
                       resubmitted. E.g. node_mtbf=3600,node_repair=120

Output:
  --report-out FILE    write the bbsim.batch.v1 report (default: stdout)
  --report-jobs        embed per-job records in the report
  --jobs-out FILE      write the stream that was run (bbsim.jobs.v1) --
                       useful to freeze a generated stream
  --timeline-out FILE  Chrome/Perfetto timeline with per-job wait + run
                       lanes (single policy only)
  --metrics            embed fleet metrics (bbsim.metrics.v1) per run
  --audit              verify the per-job reservation ledger and job
                       lifecycles every event; violations land in the
                       report and make the exit code 1
  --audit-out FILE     also write the audit report(s) to FILE (implies
                       --audit)
  --critpath           decompose each run's makespan along the blocking
                       chain of the last-finishing job into compute /
                       queue-wait / BB-capacity-wait / outage-rework blame
                       and embed it in the report (bbsim.critpath.v1)
  --critpath-out FILE  also write the critical-path report(s) to FILE
                       (requires --critpath)
  --quiet              no summary table on stderr
  --help
)";
}

BatchCliOptions parse_batch_cli(const std::vector<std::string>& args) {
  BatchCliOptions opt;
  std::size_t i = 0;
  auto next_value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) throw ConfigError("missing value for " + flag);
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      opt.help = true;
    } else if (a == "--jobs-file") {
      opt.jobs_path = next_value(a);
    } else if (a == "--gen") {
      const auto n = util::to_integer<std::int64_t>(next_value(a), a);
      if (n <= 0) throw ConfigError("--gen must be a positive job count");
      opt.gen_count = static_cast<std::size_t>(n);
    } else if (a == "--load") {
      opt.load = util::to_number(next_value(a), a);
    } else if (a == "--arrival") {
      opt.arrival = next_value(a);
    } else if (a == "--estimate-factor") {
      opt.estimate_factor = util::to_number(next_value(a), a);
    } else if (a == "--max-job-nodes") {
      opt.max_job_nodes = util::to_integer<int>(next_value(a), a);
    } else if (a == "--seed") {
      opt.seed = util::to_integer<std::uint64_t>(next_value(a), a);
    } else if (a == "--nodes") {
      opt.nodes = util::to_integer<int>(next_value(a), a);
    } else if (a == "--bb-capacity") {
      opt.bb_capacity = util::parse_size(next_value(a));
    } else if (a == "--bb-granule") {
      opt.bb_granule = util::parse_size(next_value(a));
    } else if (a == "--policy") {
      opt.policy = next_value(a);
    } else if (a == "--tau") {
      opt.tau = util::to_number(next_value(a), a);
    } else if (a == "--faults") {
      opt.faults = next_value(a);
    } else if (a == "--report-out") {
      opt.report_path = next_value(a);
    } else if (a == "--report-jobs") {
      opt.report_jobs = true;
    } else if (a == "--jobs-out") {
      opt.jobs_out = next_value(a);
    } else if (a == "--timeline-out") {
      opt.timeline_path = next_value(a);
    } else if (a == "--metrics") {
      opt.metrics = true;
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--audit-out") {
      opt.audit_path = next_value(a);
      opt.audit = true;
    } else if (a == "--critpath") {
      opt.critpath = true;
    } else if (a == "--critpath-out") {
      opt.critpath_path = next_value(a);
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      throw ConfigError("unknown argument '" + a + "' (try --help)");
    }
  }
  if (opt.help) return opt;
  if (opt.jobs_path.empty() && opt.gen_count == 0) {
    throw ConfigError("no stream given: use --jobs-file FILE or --gen N");
  }
  if (!opt.jobs_path.empty() && opt.gen_count != 0) {
    throw ConfigError("--jobs-file and --gen are mutually exclusive");
  }
  if (!opt.critpath_path.empty() && !opt.critpath) {
    throw ConfigError("--critpath-out requires --critpath");
  }
  resolve_policies(opt.policy);           // fail fast on a bad --policy value
  (void)resil::FaultSpec::parse(opt.faults);  // and on a bad --faults spec
  return opt;
}

std::vector<batch::Policy> resolve_policies(const std::string& spec) {
  if (spec == "all") {
    return {std::begin(batch::kAllPolicies), std::end(batch::kAllPolicies)};
  }
  return {batch::policy_from_string(spec)};
}

batch::StreamConfig stream_config_from(const BatchCliOptions& options) {
  batch::StreamConfig cfg;
  cfg.job_count = options.gen_count;
  cfg.machine_nodes = options.nodes;
  cfg.machine_bb_bytes = options.bb_capacity;
  cfg.load = options.load;
  cfg.estimate_factor = options.estimate_factor;
  cfg.max_job_nodes = options.max_job_nodes;
  cfg.seed = options.seed;
  // --arrival poisson | weibull | weibull:SHAPE
  std::string kind = options.arrival;
  if (const auto colon = kind.find(':'); colon != std::string::npos) {
    cfg.weibull_shape = util::to_number(kind.substr(colon + 1), "--arrival");
    kind = kind.substr(0, colon);
  }
  cfg.arrivals = batch::arrival_process_from_string(kind);
  return cfg;
}

FleetSetup fleet_setup(const BatchCliOptions& options) {
  FleetSetup setup;
  setup.machine.nodes = options.nodes;
  setup.machine.bb_bytes = options.bb_capacity;
  setup.machine.bb_granule = options.bb_granule;
  if (setup.machine.nodes <= 0) throw ConfigError("--nodes must be positive");
  if (setup.machine.bb_bytes < 0) throw ConfigError("--bb-capacity must be >= 0");
  if (setup.machine.bb_granule < 0) throw ConfigError("--bb-granule must be >= 0");

  if (!options.jobs_path.empty()) {
    setup.stream = batch::load_jobs_file(options.jobs_path);
    batch::validate_stream(setup.stream, setup.machine.nodes, setup.machine.bb_bytes);
  } else {
    setup.stream = batch::make_stream(stream_config_from(options));
  }
  setup.payloads_resolved = batch::resolve_payloads(setup.stream);

  setup.config.tau = options.tau;
  setup.config.collect_metrics = options.metrics;
  setup.config.collect_timeline = !options.timeline_path.empty();
  setup.config.audit = options.audit;
  setup.config.faults = resil::FaultSpec::parse(options.faults);
  return setup;
}

int run_batch_cli(const BatchCliOptions& options) {
  if (options.help) {
    std::fputs(batch_usage().c_str(), stdout);
    return 0;
  }

  FleetSetup setup = fleet_setup(options);
  const batch::MachineSpec& machine = setup.machine;
  const batch::JobStream& stream = setup.stream;
  if (setup.payloads_resolved > 0 && !options.quiet) {
    std::fprintf(stderr, "[batch] resolved %zu workflow payload(s)\n",
                 setup.payloads_resolved);
  }
  if (!options.jobs_out.empty()) {
    json::write_file(options.jobs_out, batch::stream_to_json(stream));
    if (!options.quiet) {
      std::fprintf(stderr, "[json] wrote %s\n", options.jobs_out.c_str());
    }
  }

  const std::vector<batch::Policy> policies = resolve_policies(options.policy);
  if (!options.timeline_path.empty() && policies.size() != 1) {
    throw ConfigError("--timeline-out needs a single policy (not --policy all)");
  }

  std::vector<batch::FleetResult> runs;
  runs.reserve(policies.size());
  std::size_t violations = 0;
  for (const batch::Policy policy : policies) {
    setup.config.policy = policy;
    batch::FleetResult r = batch::run_scheduler(machine, stream, setup.config);
    violations += r.audit_violations;
    if (!options.timeline_path.empty() && r.timeline != nullptr) {
      json::write_file(options.timeline_path, r.timeline->to_perfetto());
      if (!options.quiet) {
        std::fprintf(stderr, "[json] wrote %s\n", options.timeline_path.c_str());
      }
      r.timeline.reset();
    }
    runs.push_back(std::move(r));
  }

  if (!options.audit_path.empty()) {
    json::Object audits;
    for (const batch::FleetResult& r : runs) {
      if (!r.audit.is_null()) audits.set(batch::to_string(r.policy), r.audit);
    }
    json::write_file(options.audit_path, json::Value(std::move(audits)));
    if (!options.quiet) {
      std::fprintf(stderr, "[json] wrote %s\n", options.audit_path.c_str());
    }
  }

  if (!options.critpath_path.empty()) {
    json::Object reports;
    for (const batch::FleetResult& r : runs) {
      reports.set(batch::to_string(r.policy), batch::batch_critpath(r));
    }
    json::write_file(options.critpath_path, json::Value(std::move(reports)));
    if (!options.quiet) {
      std::fprintf(stderr, "[json] wrote %s\n", options.critpath_path.c_str());
    }
  }

  const json::Value report =
      batch::batch_report(stream, machine, options.tau, runs,
                          options.report_jobs, options.critpath);
  if (options.report_path.empty()) {
    std::fputs((report.dump(2) + "\n").c_str(), stdout);
  } else {
    json::write_file(options.report_path, report);
    if (!options.quiet) {
      std::fprintf(stderr, "[json] wrote %s\n", options.report_path.c_str());
    }
  }

  if (!options.quiet) {
    std::fprintf(stderr,
                 "%-14s %10s %10s %10s %8s %8s %8s %9s\n", "policy",
                 "makespan", "wait.mean", "bsld.mean", "util", "bb.util",
                 "bb.frag", "backfills");
    for (const batch::FleetResult& r : runs) {
      const batch::FleetSummary s = batch::summarize(r, machine, options.tau);
      std::fprintf(stderr,
                   "%-14s %10.1f %10.1f %10.2f %7.1f%% %7.1f%% %7.1f%% %9zu\n",
                   batch::to_string(r.policy), s.makespan, s.wait_mean,
                   s.bsld_mean, 100.0 * s.node_utilization,
                   100.0 * s.bb_utilization,
                   100.0 * s.bb_internal_fragmentation, s.backfilled_jobs);
    }
    for (const batch::FleetResult& r : runs) {
      if (!r.faults_enabled) continue;
      std::fprintf(stderr,
                   "%-14s outages %zu, resubmits %zu, lost %.1f node-s, "
                   "down %.1f node-s\n",
                   batch::to_string(r.policy), r.node_outages,
                   r.resubmitted_jobs, r.lost_node_seconds,
                   r.down_node_seconds);
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "bbsim_batch: audit FAILED: %zu violation(s)\n",
                 violations);
    return 1;
  }
  return 0;
}

int batch_main_impl(int argc, const char* const* argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    return run_batch_cli(parse_batch_cli(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbsim_batch: %s\n", e.what());
    return 1;
  }
}

}  // namespace bbsim::cli
