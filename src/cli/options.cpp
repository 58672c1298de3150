#include "cli/options.hpp"

#include "resil/fault.hpp"
#include "util/error.hpp"

namespace bbsim::cli {

using util::ConfigError;

std::string usage() {
  return R"(bbsim_run -- simulate a workflow execution on an HPC platform with burst buffers

Platform:
  --platform <cori|summit|FILE.json>   machine model (default: cori)
  --bb-mode <private|striped>          Cori DataWarp mode (default: private)
  --nodes N                            compute nodes for presets (default: 1)

Workflow:
  --workflow <swarp|genomes|FILE.json> workload (default: swarp)
  --pipelines P                        SWarp pipelines (default: 1)
  --chromosomes C                      1000Genomes chromosomes (default: 22)
  --cores N                            override requested cores per task

Execution:
  --policy <SPEC>                      data placement (default: all_bb)
       all_pfs | all_bb | fraction:<0..1> | size:<BYTES> | size_inv:<BYTES>
       | locality | greedy:<BYTES>     (BYTES accepts unit suffixes: 64MB)
  --scheduler <fcfs|critical_path|largest_first|smallest_first>
  --stage-in <task|instant>            staging mode (default: task)
  --stage-width N                      concurrent stage-in transfers (default: 1)
  --stage-out                          drain BB-resident products to the PFS
  --evict                              LRU-evict staged inputs when BB is full
  --cluster                            merge linear task chains before running

Resilience (failure injection + checkpoint/restart, schema bbsim.resil.v1):
  --faults <SPEC>                      seeded fault processes as key=value
                                       pairs: seed, node_mtbf / node_shape /
                                       node_repair, bb_mtbf / bb_shape /
                                       bb_degrade / bb_duration, pfs_mtbf /
                                       pfs_shape / pfs_brownout /
                                       pfs_duration, horizon. Example:
                                       node_mtbf=3600,node_repair=60,seed=7
  --checkpoint <SPEC>                  checkpoint-to-BB with async drain:
                                       interval=<s> or bare "daly"
                                       (Young/Daly tau from node_mtbf), plus
                                       bytes=<B> | fraction=<0..1>,
                                       restart=<s>, min_compute=<s>

Emulation (stochastic "real machine" instead of the plain Table-I model):
  --testbed <cori-private|cori-striped|summit>
  --reps R                             repetitions (default: 1)
  --seed S                             RNG seed (default: 42)
  --jobs N                             worker threads for repetitions
                                       (default: 1; 0 = all hardware threads;
                                       results are identical for any N)

Output:
  --trace FILE.json                    write the full result (records + trace)
  --csv FILE.csv                       write per-task records as CSV
  --dot FILE.dot                       write the workflow DAG as Graphviz
  --metrics-out FILE.json              write runtime metrics (engine/solver
                                       counters, utilization, BB occupancy)
  --timeline-out FILE.json             write a Chrome/Perfetto trace-event
                                       timeline (task phase spans per host
                                       core lane, flow transfer spans, BB
                                       occupancy / bandwidth / queue-depth
                                       counters); load it at ui.perfetto.dev
  --profile                            measure wall-clock time per subsystem
                                       (solver, event dispatch, placement)
                                       and print it; embedded in --trace
                                       output as the only nondeterministic
                                       section
  --audit                              verify simulation invariants during the
                                       run (clock, byte conservation, BB
                                       capacity, max-min fairness, schedule
                                       legality); exit 1 on any violation
  --audit-out FILE.json                write the audit report (requires --audit)
  --critpath                           record the causal event graph, extract
                                       the critical path of the makespan and
                                       print its per-resource blame split
                                       (compute / BB / PFS / waits / rework)
                                       plus what-if sensitivities; embedded
                                       in --trace output as "critpath"
  --critpath-out FILE.json             write the critical-path report
                                       (schema bbsim.critpath.v1; requires
                                       --critpath)
  --gantt                              print an ASCII Gantt chart
  --describe                           print the workflow structure summary
  --report                             print the per-type I/O characterization
  --quiet                              only print the makespan
  --help
)";
}

namespace {

testbed::System system_from(const std::string& name) {
  if (name == "cori-private") return testbed::System::CoriPrivate;
  if (name == "cori-striped") return testbed::System::CoriStriped;
  if (name == "summit") return testbed::System::Summit;
  throw ConfigError("unknown testbed system '" + name + "'");
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions opt;
  std::size_t i = 0;
  auto next_value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) throw ConfigError("missing value for " + flag);
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      opt.help = true;
    } else if (a == "--platform") {
      opt.platform = next_value(a);
    } else if (a == "--bb-mode") {
      opt.bb_mode = platform::bb_mode_from_string(next_value(a));
    } else if (a == "--nodes") {
      opt.nodes = std::stoi(next_value(a));
    } else if (a == "--workflow") {
      opt.workflow = next_value(a);
    } else if (a == "--pipelines") {
      opt.pipelines = std::stoi(next_value(a));
    } else if (a == "--chromosomes") {
      opt.chromosomes = std::stoi(next_value(a));
    } else if (a == "--cores") {
      opt.cores = std::stoi(next_value(a));
    } else if (a == "--policy") {
      opt.policy = next_value(a);
    } else if (a == "--scheduler") {
      opt.scheduler = exec::scheduler_from_string(next_value(a));
    } else if (a == "--stage-in") {
      opt.stage_in = exec::stage_in_mode_from_string(next_value(a));
    } else if (a == "--stage-width") {
      opt.stage_width = std::stoi(next_value(a));
    } else if (a == "--stage-out") {
      opt.stage_out = true;
    } else if (a == "--evict") {
      opt.evict = true;
    } else if (a == "--cluster") {
      opt.cluster = true;
    } else if (a == "--faults") {
      opt.faults = next_value(a);
    } else if (a == "--checkpoint") {
      opt.checkpoint = next_value(a);
    } else if (a == "--testbed") {
      opt.testbed_system = system_from(next_value(a));
    } else if (a == "--reps") {
      opt.repetitions = std::stoi(next_value(a));
    } else if (a == "--seed") {
      opt.seed = std::stoull(next_value(a));
    } else if (a == "--jobs") {
      opt.jobs = std::stoi(next_value(a));
    } else if (a == "--trace") {
      opt.trace_path = next_value(a);
    } else if (a == "--csv") {
      opt.csv_path = next_value(a);
    } else if (a == "--dot") {
      opt.dot_path = next_value(a);
    } else if (a == "--metrics-out") {
      opt.metrics_path = next_value(a);
    } else if (a == "--timeline-out") {
      opt.timeline_path = next_value(a);
    } else if (a == "--profile") {
      opt.profile = true;
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--audit-out") {
      opt.audit_path = next_value(a);
    } else if (a == "--critpath") {
      opt.critpath = true;
    } else if (a == "--critpath-out") {
      opt.critpath_path = next_value(a);
    } else if (a == "--gantt") {
      opt.gantt = true;
    } else if (a == "--describe") {
      opt.describe = true;
    } else if (a == "--report") {
      opt.report = true;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      throw ConfigError("unknown argument '" + a + "' (try --help)");
    }
  }
  if (opt.nodes < 1) throw ConfigError("--nodes must be >= 1");
  if (opt.stage_width < 1) throw ConfigError("--stage-width must be >= 1");
  if (opt.pipelines < 1) throw ConfigError("--pipelines must be >= 1");
  if (opt.repetitions < 1) throw ConfigError("--reps must be >= 1");
  if (opt.jobs < 0) throw ConfigError("--jobs must be >= 0 (0 = all hardware threads)");
  if (!opt.critpath_path.empty() && !opt.critpath) {
    throw ConfigError("--critpath-out requires --critpath");
  }
  if (!opt.audit_path.empty() && !opt.audit) {
    throw ConfigError("--audit-out requires --audit");
  }
  (void)make_policy(opt.policy);  // validate early
  (void)resil::FaultSpec::parse(opt.faults);
  (void)resil::CheckpointSpec::parse(opt.checkpoint);
  return opt;
}

}  // namespace bbsim::cli
