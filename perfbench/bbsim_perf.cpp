// bbsim_perf -- the measuring half of the bbsim end-to-end benchmark.
//
// Runs one workload in a closed loop on one thread (the next simulation or
// policy pass starts only after the previous one returned) for a wall-clock
// budget. It generates every input itself, hands the generated inputs to the
// library's public entry points (wf::make_*, exec::Simulation,
// batch::run_scheduler, sweep::SweepRunner) and times those calls from the
// outside. The last line of stdout is one JSON object of raw measurements
// (schema bbsim.perfbench.raw.v1); perfbench/run.py turns it into metrics,
// checks the outputs against pinned references and prints the result.
//
// With --trace the run is the separate per-layer run: it turns on the
// library's ExecutionConfig::profile and collect_metrics, reads the
// sim.dispatch / flow.solve / exec.placement sections and the engine,
// solver and resilience counters, and records spans around every layer
// call. Spans stay in memory and are written to --spans FILE at exit.
//
// Usage: bbsim_perf --workload sim_wide|sim_narrow|fleet|genomes_resil
//                   --seed N --seconds S [--trace] [--spans FILE]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "batch/generator.hpp"
#include "batch/scheduler.hpp"
#include "exec/engine.hpp"
#include "exec/placement.hpp"
#include "json/json.hpp"
#include "platform/presets.hpp"
#include "resil/fault.hpp"
#include "sweep/runner.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"
#include "workflow/genomes.hpp"
#include "workflow/random_dag.hpp"

namespace {

using namespace bbsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder: name, start, end and the enclosing span, in
/// seconds from the recorder's creation. A disabled recorder costs a branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  std::size_t open(const std::string& name) {
    if (!enabled_) return 0;
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({name, seconds_since(origin_), -1.0, parent});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    if (!enabled_) return;
    spans_[id].end = seconds_since(origin_);
    stack_.pop_back();
  }

  json::Value to_json() const {
    json::Array out;
    for (const Span& s : spans_) {
      json::Object o;
      o.set("name", s.name);
      o.set("start_s", s.start);
      o.set("end_s", s.end);
      o.set("parent", static_cast<double>(s.parent));
      out.push_back(json::Value(std::move(o)));
    }
    json::Object root;
    root.set("schema", "bbsim.perfbench.spans.v1");
    root.set("spans", json::Value(std::move(out)));
    return json::Value(std::move(root));
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const std::string& name) : spans_(spans), id_(spans.open(name)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { spans_.close(id_); }

 private:
  Spans& spans_;
  std::size_t id_;
};

// ------------------------------------------------------------ raw report

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// Everything one run measured, before run.py derives metrics from it.
struct Raw {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_s;  ///< `calibration` at each set-up
  /// One measured call: which unit of work it was (run.py keeps each
  /// key's median repetition), the items it completed (tasks, or jobs
  /// scheduled), its wall seconds and the calibration taken before it.
  struct Iteration {
    std::string key;
    double items = 0.0;
    double seconds = 0.0;
    double calibration_s = 0.0;
  };
  std::vector<Iteration> iterations;
  /// Median wall seconds of the latest calibration (0 before the first).
  double calibration = 0.0;
  double measured_s = 0.0;          ///< wall seconds of the measured calls
  json::Object outputs;             ///< what run.py compares against references
  std::vector<json::Object> layer_runs;  ///< traced runs: one per repetition

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }

  /// Books one measured call; a call that threw (negative seconds) still
  /// spends a little budget, so a failing loop ends.
  void timed(const std::string& key, double items, double seconds) {
    measured_s += std::max(seconds, 1e-3);
    if (seconds > 0.0) iterations.push_back({key, items, seconds, calibration});
  }

  /// Books one set-up sample with the calibration it ran under.
  void timed_setup(double seconds) {
    setup_s.push_back(seconds);
    setup_calibration_s.push_back(calibration);
  }

  /// Closed-loop budget: start another iteration only while the mean
  /// iteration so far still fits in the budget (always run at least one).
  bool more(std::size_t done, double seconds) const {
    return done == 0 || measured_s + measured_s / static_cast<double>(done) <= seconds;
  }
};

/// A fixed piece of work, outside the library: integer mixing, branches
/// and floating point in registers, with no memory traffic. A change to
/// bbsim cannot change its cost, so its wall time measures how fast the core
/// runs at the moment. On a shared host other tenants slow this kernel and
/// the simulator alike (kernels that walk megabytes of memory slow down
/// more than the simulator does); run.py scales the times by it.
double calibration_kernel() {
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 1500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::sqrt(static_cast<double>(x % 1000)) * ((x & 1) != 0 ? 1.0 : -0.5);
  }
  return acc;
}

/// Seconds of calibration work before anything is timed.
constexpr double kWarmUpSeconds = 1.0;

/// Kernel runs per calibration.
constexpr int kCalibrationSamples = 7;

/// Times the calibration kernel a few times and keeps the median as the
/// host speed for the set-ups and iterations that follow. The loops call
/// it before each pass.
void calibrate(Raw& raw) {
  std::vector<double> samples;
  for (int i = 0; i < kCalibrationSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    volatile double sink = calibration_kernel();
    (void)sink;
    samples.push_back(seconds_since(t0));
  }
  std::nth_element(samples.begin(), samples.begin() + kCalibrationSamples / 2, samples.end());
  raw.calibration = samples[kCalibrationSamples / 2];
}

/// Set-up samples per loop pass of the workloads whose set-up is cheap.
constexpr int kSetupSamples = 3;

/// Times a cheap set-up a few times. The loops call it once per pass, so
/// the set-up samples spread over the run like the iterations.
template <typename SetUp>
void sample_setup(Raw& raw, SetUp&& set_up) {
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    set_up();
    raw.timed_setup(seconds_since(t0));
  }
}

void add_layer(json::Object& layers, const std::string& key, double value) {
  const json::Value* old = layers.find(key);
  layers.set(key, (old != nullptr ? old->as_number() : 0.0) + value);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A finished simulation passes when every task of the workflow completed,
/// the makespan is a positive number and, when audited, no invariant broke.
void check_simulation(const exec::Result& result, const wf::Workflow& workflow,
                      const std::string& label, Raw& raw) {
  std::size_t finished = 0;
  for (const auto& [name, record] : result.tasks) {
    if (record.t_end > 0.0 && record.t_end >= record.t_start) ++finished;
  }
  if (finished != workflow.task_count()) {
    raw.fail(label + ": " + std::to_string(finished) + " of " +
             std::to_string(workflow.task_count()) + " tasks finished");
  } else if (!(std::isfinite(result.makespan) && result.makespan > 0.0)) {
    raw.fail(label + ": makespan is not a positive number");
  } else if (!result.audit.is_null() && result.audit_violations > 0) {
    raw.fail(label + ": " + std::to_string(result.audit_violations) + " audit violations");
  }
}

const trace::ProfileSection* find_section(const trace::Profiler& profiler,
                                          const std::string& name) {
  for (const auto& section : profiler.sections()) {
    if (section->name == name) return section.get();
  }
  return nullptr;
}

/// Adds one traced simulation's profile sections and work counters to the
/// layer totals (sums, so a sweep of runs reports the whole grid).
void add_profile(exec::Simulation& sim, json::Object& layers) {
  const std::pair<const char*, const char*> sections[] = {
      {"sim.dispatch", "sim.dispatch_s"},
      {"flow.solve", "flow.solve_s"},
      {"exec.placement", "exec.placement_s"}};
  for (const auto& [section, key] : sections) {
    const trace::ProfileSection* s =
        sim.profiler() != nullptr ? find_section(*sim.profiler(), section) : nullptr;
    add_layer(layers, key, s != nullptr ? s->total_seconds : 0.0);
  }
  const std::pair<const char*, const char*> counters[] = {
      {"sim.events_executed", "sim.events"},
      {"flow.solve_calls", "flow.solve_calls"},
      {"flow.solve_rounds", "flow.solve_rounds"},
      {"flow.solve_flows_resolved", "flow.solve_flows_resolved"}};
  for (const auto& [counter, key] : counters) {
    const stats::Counter* c =
        sim.metrics() != nullptr ? sim.metrics()->find_counter(counter) : nullptr;
    add_layer(layers, key, c != nullptr ? c->value() : 0.0);
  }
}

/// Pins the first iteration's makespans as the run's output and fails any
/// later iteration on the same input that disagrees with them.
void record_makespans(const json::Array& makespans, bool first, const std::string& label,
                      Raw& raw) {
  if (first) {
    raw.outputs.set("makespans", json::Value(makespans));
  } else if (json::Value(makespans) != raw.outputs.at("makespans")) {
    raw.fail(label + ": makespans differ from the first iteration on the same input");
  }
}

// ------------------------------------------------------------ sim_wide/narrow

/// One make_scale_dag simulation shape on Summit (node-local BB).
struct SimShape {
  const char* name;
  std::size_t tasks;
  std::size_t width;
  int hosts;
};

/// sim_wide keeps ~a thousand flows in flight, so FlowManager's per-event
/// walks dominate; sim_narrow keeps tens of flows over many more tasks, so
/// exec's per-task bookkeeping dominates. Both are sized so one simulation
/// takes about a second and a run repeats each many times.
constexpr SimShape kSimWide{"sim_wide", 8192, 1024, 32};
constexpr SimShape kSimNarrow{"sim_narrow", 50000, 32, 16};
constexpr int kTracedRepeats = 3;

/// Set-up of one simulation: the platform, the generated DAG and the
/// constructed Simulation, each timed.
struct SimSetup {
  platform::PlatformSpec platform;
  wf::Workflow workflow;
  std::unique_ptr<exec::Simulation> sim;
  double gen_s = 0.0;
  double construct_s = 0.0;
};

SimSetup set_up_sim(const SimShape& shape, std::uint64_t seed, bool profiled, Spans& spans) {
  SimSetup s;
  {
    SpanScope span(spans, "workflow.make_scale_dag");
    const Clock::time_point t0 = Clock::now();
    platform::PresetOptions opt;
    opt.compute_nodes = shape.hosts;
    s.platform = platform::summit_platform(opt);
    wf::ScaleDagConfig config;
    config.task_count = shape.tasks;
    config.width = shape.width;
    util::Rng rng = util::Rng(seed).fork(shape.name);
    s.workflow = wf::make_scale_dag(config, rng);
    s.gen_s = seconds_since(t0);
  }
  {
    SpanScope span(spans, "exec.Simulation");
    exec::ExecutionConfig config;
    config.collect_trace = false;
    config.profile = profiled;
    config.collect_metrics = profiled;
    const Clock::time_point t0 = Clock::now();
    s.sim = std::make_unique<exec::Simulation>(s.platform, s.workflow, config);
    s.construct_s = seconds_since(t0);
  }
  return s;
}

/// Runs a set-up simulation and checks it; returns run() wall seconds, or
/// a negative value when it threw.
double run_sim(SimSetup& s, const std::string& label, Raw& raw, Spans& spans) {
  SpanScope span(spans, "exec.run");
  ++raw.attempted;
  try {
    const Clock::time_point t0 = Clock::now();
    const exec::Result result = s.sim->run();
    const double elapsed = seconds_since(t0);
    check_simulation(result, s.workflow, label, raw);
    record_makespans(json::Array{json::Value(result.makespan)},
                     !raw.outputs.contains("makespans"), label, raw);
    return elapsed;
  } catch (const std::exception& e) {
    raw.fail(label + ": " + e.what());
    return -1.0;
  }
}

void sim_workload(const SimShape& shape, const Args& args, Raw& raw, Spans& spans) {
  if (args.trace) {
    // Untraced and traced runs of the same input alternate; each traced run
    // is one repetition of the per-layer numbers, and the untraced run
    // before it is its trace-overhead baseline.
    for (int i = 0; i < kTracedRepeats; ++i) {
      SimSetup plain = set_up_sim(shape, args.seed, false, spans);
      const double plain_run = run_sim(plain, "untraced", raw, spans);
      plain = SimSetup{};
      SimSetup traced = set_up_sim(shape, args.seed, true, spans);
      const double traced_run = run_sim(traced, "traced", raw, spans);
      raw.timed_setup(traced.gen_s + traced.construct_s);
      json::Object layers;
      layers.set("workflow.gen_s", traced.gen_s);
      layers.set("exec.construct_s", traced.construct_s);
      layers.set("exec.run_s", traced_run);
      layers.set("exec.untraced_run_s", plain_run);
      add_profile(*traced.sim, layers);
      raw.layer_runs.push_back(std::move(layers));
    }
    return;
  }

  std::size_t iteration = 0;
  while (raw.more(iteration, args.seconds)) {
    calibrate(raw);
    SimSetup s = set_up_sim(shape, args.seed, false, spans);
    raw.timed_setup(s.gen_s + s.construct_s);
    const double elapsed =
        run_sim(s, "iteration " + std::to_string(iteration), raw, spans);
    raw.timed("simulation", static_cast<double>(s.workflow.task_count()), elapsed);
    ++iteration;
  }
}

// ------------------------------------------------------------------ fleet

/// The fleet stream is one fixed realisation (bench_batch's seed): the cost
/// of conservative and plan-based backfilling swings by tens of percent
/// between stream seeds, more than any run-to-run bound could absorb.
constexpr std::uint64_t kFleetSeed = 20260809;
constexpr std::size_t kFleetJobs = 3000;

/// bench_batch's contended regime: offered load past capacity and a
/// quarter of the jobs hogging most of the BB pool.
batch::StreamConfig fleet_config(std::size_t jobs) {
  batch::StreamConfig config;
  config.name = "perfbench-fleet";
  config.job_count = jobs;
  config.machine_nodes = 32;
  config.machine_bb_bytes = 6.4e12;
  config.load = 1.15;
  config.max_job_nodes = 16;
  config.estimate_factor = 3.0;
  config.bb_hog_fraction = 0.25;
  config.bb_hog_share = 0.6;
  config.seed = kFleetSeed;
  return config;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// FNV-1a over every (job id, start-time bits) pair: bench_batch's
/// fingerprint of one policy's whole schedule.
std::string schedule_hash(const batch::FleetResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const batch::JobOutcome& job : result.jobs) {
    const std::uint64_t id = job.id;
    std::uint64_t start_bits = 0;
    static_assert(sizeof(start_bits) == sizeof(job.start));
    std::memcpy(&start_bits, &job.start, sizeof(start_bits));
    hash = fnv1a(hash, &id, sizeof(id));
    hash = fnv1a(hash, &start_bits, sizeof(start_bits));
  }
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

void check_fleet(const batch::FleetResult& result, const batch::JobStream& stream,
                 const std::string& label, Raw& raw) {
  if (result.jobs.size() != stream.jobs.size()) {
    raw.fail(label + ": " + std::to_string(result.jobs.size()) + " of " +
             std::to_string(stream.jobs.size()) + " jobs scheduled");
    return;
  }
  for (const batch::JobOutcome& job : result.jobs) {
    if (!(job.start >= job.submit && job.end >= job.start && std::isfinite(job.end))) {
      raw.fail(label + ": job " + job.name + " has an illegal schedule");
      return;
    }
  }
}

/// Times one policy over the stream and checks it; returns wall seconds, or
/// a negative value when it threw.
double run_policy(batch::Policy policy, const batch::JobStream& stream, Raw& raw,
                  Spans& spans, batch::FleetResult* out) {
  const std::string name = batch::to_string(policy);
  SpanScope span(spans, "batch.run_scheduler." + name);
  ++raw.attempted;
  try {
    batch::MachineSpec machine;
    machine.nodes = 32;
    machine.bb_bytes = 6.4e12;
    batch::SchedulerConfig config;
    config.policy = policy;
    const Clock::time_point t0 = Clock::now();
    batch::FleetResult result = batch::run_scheduler(machine, stream, config);
    const double elapsed = seconds_since(t0);
    check_fleet(result, stream, name, raw);
    *out = std::move(result);
    return elapsed;
  } catch (const std::exception& e) {
    raw.fail(name + ": " + e.what());
    return -1.0;
  }
}

/// One pass of every policy over the stream; fills `layers` with
/// per-policy times and backfill counts.
void fleet_pass(const batch::JobStream& stream, Raw& raw, Spans& spans,
                json::Object& layers) {
  json::Object hashes;
  for (const batch::Policy policy : batch::kAllPolicies) {
    const std::string name = batch::to_string(policy);
    batch::FleetResult result;
    const double elapsed = run_policy(policy, stream, raw, spans, &result);
    raw.timed(name, static_cast<double>(stream.jobs.size()), elapsed);
    if (elapsed < 0.0) continue;
    hashes.set(name, schedule_hash(result));
    layers.set("batch." + name + "_s", elapsed);
    layers.set("batch.backfilled." + name, static_cast<double>(result.backfilled_jobs));
  }
  if (!raw.outputs.contains("hashes")) {
    raw.outputs.set("hashes", json::Value(std::move(hashes)));
  } else if (json::Value(std::move(hashes)) != raw.outputs.at("hashes")) {
    raw.fail("schedules differ from the first pass on the same stream");
  }
}

void fleet_workload(const Args& args, Raw& raw, Spans& spans) {
  batch::JobStream stream;
  const auto set_up = [&] {
    SpanScope span(spans, "batch.make_stream");
    stream = batch::make_stream(fleet_config(kFleetJobs));
  };
  sample_setup(raw, set_up);

  if (args.trace) {
    // Conservative's growth: the same generator at a quarter of the jobs,
    // fastest of three because the small run is short.
    const batch::JobStream quarter = batch::make_stream(fleet_config(kFleetJobs / 4));
    for (int i = 0; i < kTracedRepeats; ++i) {
      json::Object layers;
      fleet_pass(stream, raw, spans, layers);
      double best = -1.0;
      for (int k = 0; k < 3; ++k) {
        batch::FleetResult result;
        const double elapsed =
            run_policy(batch::Policy::Conservative, quarter, raw, spans, &result);
        if (elapsed >= 0.0 && (best < 0.0 || elapsed < best)) best = elapsed;
      }
      layers.set("batch.jobs", static_cast<double>(stream.jobs.size()));
      layers.set("batch.quarter_jobs", static_cast<double>(quarter.jobs.size()));
      layers.set("batch.conservative_quarter_s", best);
      raw.layer_runs.push_back(std::move(layers));
    }
    return;
  }

  std::size_t passes = 0;
  while (raw.more(passes, args.seconds)) {
    calibrate(raw);
    sample_setup(raw, set_up);  // the same stream again
    json::Object layers;
    fleet_pass(stream, raw, spans, layers);
    ++passes;
  }
}

// ------------------------------------------------------------ genomes_resil

/// The two ends of the paper's Fig. 13/14 grid -- Cori (private shared BB)
/// with no input staged, Summit (node-local BB) with all of it staged --
/// under the failure and checkpoint specs a user passes as --faults /
/// --checkpoint. Two points keep each one repeated several times per run.
/// Each point's fault seed is fixed, independent of --seed: which runs a
/// crash lands in swings the cost by tens of percent between fault seeds,
/// and seeds 11 and 12 put crashes, kills and lineage rollbacks in the grid.
struct GridPoint {
  testbed::System system;
  double staged_fraction;
  std::uint64_t fault_seed;
};
constexpr GridPoint kGridPoints[] = {{testbed::System::CoriPrivate, 0.0, 11},
                                     {testbed::System::Summit, 1.0, 12}};
constexpr int kGenomesNodes = 8;
const char* const kFaults = "node_mtbf=20000,node_repair=60,horizon=4000";
const char* const kCheckpoint = "daly,fraction=0.1,restart=5";

struct GenomesGrid {
  wf::Workflow workflow;
  std::vector<std::string> names;                 ///< one per grid point
  std::vector<platform::PlatformSpec> platforms;  ///< one per grid point
  std::vector<exec::ExecutionConfig> configs;     ///< one per grid point
};

GenomesGrid set_up_genomes() {
  GenomesGrid grid;
  grid.workflow = wf::make_1000genomes({});
  const resil::FaultSpec faults = resil::FaultSpec::parse(kFaults);
  const resil::CheckpointSpec checkpoint = resil::CheckpointSpec::parse(kCheckpoint);
  for (const GridPoint& point : kGridPoints) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s/staged=%g", testbed::to_string(point.system),
                  point.staged_fraction);
    grid.names.emplace_back(name);
    grid.platforms.push_back(testbed::paper_platform(point.system, kGenomesNodes));
    exec::ExecutionConfig config;
    config.placement =
        std::make_shared<exec::FractionPolicy>(point.staged_fraction, exec::Tier::BurstBuffer);
    config.stage_in_mode = exec::StageInMode::Instant;
    config.collect_trace = false;
    config.faults = faults;
    config.faults.seed = point.fault_seed;
    config.checkpoint = checkpoint;
    config.critpath = true;
    config.audit = true;
    grid.configs.push_back(std::move(config));
  }
  return grid;
}

/// What the sweep bodies record per spec (SweepRunner runs them inline with
/// one worker; each body writes only its own slot).
struct GridTimes {
  std::vector<double> construct_s;
  std::vector<double> run_s;
  std::vector<std::shared_ptr<const resil::RunStats>> resil;
};

/// The grid as sweep specs; `observed` turns critpath + audit on, `profiled`
/// the profiler and metrics (whose totals go to `layers`).
std::vector<sweep::RunSpec> grid_specs(const GenomesGrid& grid, bool observed, bool profiled,
                                       GridTimes& times, json::Object& layers,
                                       Spans& spans) {
  const std::size_t n = grid.configs.size();
  times.construct_s.assign(n, 0.0);
  times.run_s.assign(n, 0.0);
  times.resil.assign(n, nullptr);
  std::vector<sweep::RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    exec::ExecutionConfig config = grid.configs[i];
    config.critpath = observed;
    config.audit = observed;
    config.profile = profiled;
    config.collect_metrics = profiled;
    const platform::PlatformSpec& platform = grid.platforms[i];
    specs.push_back({grid.names[i], [&grid, &platform, &times, &layers, &spans, config, i,
                                     profiled] {
                       SpanScope spec_span(spans, "sweep.spec");
                       std::unique_ptr<exec::Simulation> sim;
                       {
                         SpanScope span(spans, "exec.Simulation");
                         const Clock::time_point t0 = Clock::now();
                         sim = std::make_unique<exec::Simulation>(platform, grid.workflow,
                                                                  config);
                         times.construct_s[i] = seconds_since(t0);
                       }
                       SpanScope span(spans, "exec.run");
                       const Clock::time_point t0 = Clock::now();
                       exec::Result result = sim->run();
                       times.run_s[i] = seconds_since(t0);
                       times.resil[i] = result.resil_stats;
                       if (profiled) add_profile(*sim, layers);
                       return result;
                     }});
  }
  return specs;
}

/// Runs the grid through a one-worker SweepRunner and checks every outcome
/// (an observed grid must also carry audit reports). Returns the sweep's
/// wall seconds.
double run_grid(const GenomesGrid& grid, const std::vector<sweep::RunSpec>& specs,
                bool observed, const std::string& label, Raw& raw, Spans& spans,
                std::vector<sweep::RunOutcome>* outcomes) {
  SpanScope span(spans, "sweep.SweepRunner.run");
  sweep::SweepOptions options;
  options.jobs = 1;
  outcomes->clear();  // the previous grid's results must not inflate peak memory
  const Clock::time_point t0 = Clock::now();
  *outcomes = sweep::SweepRunner(options).run(specs);
  const double elapsed = seconds_since(t0);
  json::Array makespans;
  for (const sweep::RunOutcome& outcome : *outcomes) {
    ++raw.attempted;
    makespans.push_back(json::Value(outcome.ok ? outcome.result.makespan : -1.0));
    if (!outcome.ok) {
      raw.fail(outcome.name + ": " + outcome.error);
      continue;
    }
    check_simulation(outcome.result, grid.workflow, outcome.name, raw);
    if (observed && outcome.result.audit.is_null()) {
      raw.fail(outcome.name + ": audited run has no audit report");
    }
  }
  record_makespans(makespans, !raw.outputs.contains("makespans"), label, raw);
  return elapsed;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void genomes_workload(const Args& args, Raw& raw, Spans& spans) {
  // The sweep specs point into `grid`, so later set-up samples build a
  // grid of their own and drop it.
  const auto set_up = [&spans] {
    SpanScope span(spans, "workflow.make_1000genomes");
    return set_up_genomes();
  };
  GenomesGrid grid;
  sample_setup(raw, [&] { grid = set_up(); });
  const double tasks = static_cast<double>(grid.workflow.task_count());
  GridTimes times;
  json::Object unused;
  std::vector<sweep::RunOutcome> outcomes;
  const std::vector<sweep::RunSpec> observed =
      grid_specs(grid, true, false, times, unused, spans);

  if (args.trace) {
    // The grid as a user runs it, then with critpath and audit off, back to
    // back, then once more with the profiler and metrics on.
    json::Object layers;
    layers.set("workflow.gen_s", median(raw.setup_s));
    const double on_s = run_grid(grid, observed, true, "observed grid", raw, spans, &outcomes);
    json::Array walls;
    for (const sweep::RunOutcome& outcome : outcomes) walls.push_back(outcome.wall_seconds);
    layers.set("sweep.run_s", json::Value(std::move(walls)));
    layers.set("exec.untraced_run_s", sum(times.run_s));

    GridTimes bare;
    const double off_s = run_grid(grid, grid_specs(grid, false, false, bare, unused, spans),
                                  false, "unobserved grid", raw, spans, &outcomes);
    layers.set("observers.on_s", on_s);
    layers.set("observers.off_s", off_s);

    GridTimes traced;
    run_grid(grid, grid_specs(grid, true, true, traced, layers, spans), true, "traced grid",
             raw, spans, &outcomes);
    layers.set("exec.construct_s", sum(traced.construct_s));
    layers.set("exec.run_s", sum(traced.run_s));
    double checkpoints = 0.0, killed = 0.0, rollbacks = 0.0;
    for (const auto& stats : traced.resil) {
      if (stats == nullptr) continue;
      checkpoints += stats->checkpoints_taken;
      killed += stats->tasks_killed;
      rollbacks += stats->rollbacks;
    }
    layers.set("resil.checkpoints", checkpoints);
    layers.set("resil.tasks_killed", killed);
    layers.set("resil.rollbacks", rollbacks);
    raw.layer_runs.push_back(std::move(layers));
    return;
  }

  // Each sweep run is one iteration keyed by its grid point, timed by the
  // runner's wall_seconds: Simulation construction included, as a campaign
  // pays it on every run. Whole grids only, so every point is measured.
  std::size_t grids = 0;
  while (raw.more(grids, args.seconds)) {
    calibrate(raw);
    sample_setup(raw, set_up);
    run_grid(grid, observed, true, "grid " + std::to_string(grids), raw, spans, &outcomes);
    for (const sweep::RunOutcome& outcome : outcomes) {
      raw.timed(outcome.name, tasks, outcome.ok ? outcome.wall_seconds : -1.0);
    }
    ++grids;
  }
}

// ------------------------------------------------------------------- main

json::Value to_json(const Args& args, bool seeded, const Raw& raw) {
  const auto array = [](const std::vector<double>& values) {
    json::Array out;
    for (const double v : values) out.push_back(json::Value(v));
    return json::Value(std::move(out));
  };
  json::Object root;
  root.set("schema", "bbsim.perfbench.raw.v1");
  root.set("workload", args.workload);
  root.set("seed", static_cast<double>(args.seed));
  root.set("seeded", seeded);
  root.set("traced", args.trace);
  root.set("attempted", raw.attempted);
  root.set("failed", raw.failed);
  json::Array errors;
  for (const std::string& e : raw.errors) errors.push_back(json::Value(e));
  root.set("errors", json::Value(std::move(errors)));
  root.set("setup_s", array(raw.setup_s));
  root.set("setup_calibration_s", array(raw.setup_calibration_s));
  json::Array iterations;
  for (const Raw::Iteration& it : raw.iterations) {
    json::Object o;
    o.set("key", it.key);
    o.set("items", it.items);
    o.set("seconds", it.seconds);
    o.set("calibration_s", it.calibration_s);
    iterations.push_back(json::Value(std::move(o)));
  }
  root.set("iterations", json::Value(std::move(iterations)));
  root.set("measured_s", raw.measured_s);
  root.set("peak_rss_mb", peak_rss_mb());
  root.set("outputs", json::Value(raw.outputs));
  json::Array layer_runs;
  for (const json::Object& layers : raw.layer_runs) layer_runs.push_back(json::Value(layers));
  root.set("layer_runs", json::Value(std::move(layer_runs)));
  return json::Value(std::move(root));
}

int usage() {
  std::fprintf(stderr,
               "usage: bbsim_perf --workload sim_wide|sim_narrow|fleet|genomes_resil "
               "--seed N --seconds S [--trace] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        args.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        args.trace = true;
      } else if (arg == "--spans" && has_value) {
        args.spans_path = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }

  const bool sim_wide = args.workload == kSimWide.name;
  const bool sim_narrow = args.workload == kSimNarrow.name;
  if (!sim_wide && !sim_narrow && args.workload != "fleet" &&
      args.workload != "genomes_resil") {
    return usage();
  }
  Spans spans(args.trace);
  Raw raw;
  // Warm-up: a vCPU that was idle runs at full speed only after a few
  // hundred milliseconds of work.
  for (const Clock::time_point t0 = Clock::now(); seconds_since(t0) < kWarmUpSeconds;) {
    volatile double sink = calibration_kernel();
    (void)sink;
  }
  calibrate(raw);  // for the set-ups made before the first loop pass
  try {
    if (sim_wide || sim_narrow) {
      sim_workload(sim_wide ? kSimWide : kSimNarrow, args, raw, spans);
    } else if (args.workload == "fleet") {
      fleet_workload(args, raw, spans);
    } else {
      genomes_workload(args, raw, spans);
    }
  } catch (const std::exception& e) {
    ++raw.attempted;
    raw.fail(std::string("workload aborted: ") + e.what());
  }

  if (args.trace && !args.spans_path.empty()) {
    json::write_file(args.spans_path, spans.to_json());
  }
  std::printf("%s\n", to_json(args, sim_wide || sim_narrow, raw).dump().c_str());
  return 0;
}
