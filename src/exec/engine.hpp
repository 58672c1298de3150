// bbsim -- the workflow execution engine (the simulated WMS).
//
// Mirrors the execution semantics of the paper's WRENCH simulator:
//
//   * workflow input files start on the PFS; the placement policy selects
//     files to stage into the burst buffer -- either by a sequential
//     stage-in task (SWarp, Figure 2) or instantly at t=0 (the 1000Genomes
//     case study, where staging is outside the measured makespan);
//   * ready tasks are scheduled FCFS onto hosts with enough free cores
//     (locality-pinned when the BB restricts access by node);
//   * a task reads all inputs (at most `cores` files concurrently -- the
//     paper's assumption that I/O parallelism scales with cores), computes
//     for amdahl_time(flops / core_speed, cores, alpha), then writes all
//     outputs to the tier chosen by the placement policy;
//   * every byte moved is a flow through the platform's shared resources,
//     so contention between concurrent pipelines emerges from max-min
//     bandwidth sharing.
//
// The same engine runs both the paper's simple model (default spec: no
// per-stream caps, no metadata limits, no noise) and the high-fidelity
// testbed emulator (src/testbed installs caps/latency/noise hooks).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "audit/probes.hpp"
#include "critpath/critpath.hpp"
#include "exec/placement.hpp"
#include "exec/trace.hpp"
#include "model/calibration.hpp"
#include "obs/sinks.hpp"
#include "platform/fabric.hpp"
#include "resil/fault.hpp"
#include "sim/engine.hpp"
#include "stats/metrics.hpp"
#include "storage/system.hpp"
#include "trace/profiler.hpp"
#include "trace/timeline.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::exec {

/// How staged input files reach the burst buffer.
enum class StageInMode {
  Task,     ///< a sequential stage-in task copies them (counted in makespan)
  Instant,  ///< pre-staged at t=0 at no cost (stage-in outside the makespan)
};

const char* to_string(StageInMode mode);  ///< "task" | "instant"
/// Parses a to_string(StageInMode) name. Throws ConfigError.
StageInMode stage_in_mode_from_string(const std::string& name);

/// Order in which ready tasks are dispatched onto free cores.
enum class SchedulerPolicy {
  Fcfs,               ///< by readiness time (submission order on ties)
  CriticalPathFirst,  ///< highest upward rank (longest downstream work) first
  LargestFirst,       ///< most sequential work first (LPT)
  SmallestFirst,      ///< least sequential work first (SPT)
};

const char* to_string(SchedulerPolicy policy);
/// Parses a to_string(SchedulerPolicy) name. Throws ConfigError.
SchedulerPolicy scheduler_from_string(const std::string& name);

struct ExecutionConfig {
  std::shared_ptr<PlacementPolicy> placement;  ///< default: all_bb_policy()
  StageInMode stage_in_mode = StageInMode::Task;
  SchedulerPolicy scheduler = SchedulerPolicy::Fcfs;
  /// Drain final products that landed in the BB back to the PFS when the
  /// last task finishes (sequential transfers, reported as stage-out time).
  bool stage_out = false;
  /// When the BB is full, evict least-recently-used *staged input* files
  /// (safe: their PFS copy remains) to make room for new writes/stages.
  bool bb_eviction = false;
  /// Concurrent transfers per stage-in task. The paper's stage-in is
  /// sequential (width 1); DataWarp can overlap several stage requests.
  int stage_in_width = 1;
  /// Override requested cores for every task (0 = honour task settings).
  int force_cores = 0;
  /// Record the full event trace (disable for large sweeps).
  bool collect_trace = true;
  /// Collect runtime metrics (engine/solver counters, per-resource
  /// utilization, BB occupancy, task breakdown aggregates) into a
  /// MetricsRegistry, exported as Result::metrics. Off by default: sweeps
  /// that run thousands of simulations should not pay for sampling.
  bool collect_metrics = false;
  /// Record the structured virtual-time timeline (task phase spans, flow
  /// transfer spans, occupancy / bandwidth / queue-depth counter tracks)
  /// into a trace::TimelineRecorder, exported as Result::timeline
  /// (Perfetto JSON via Timeline::to_perfetto). Off by default for the
  /// same reason as collect_metrics.
  bool collect_timeline = false;
  /// Aggregate wall-clock self-profiling (solver, event dispatch,
  /// placement) into a trace::Profiler, exported as Result::profile.
  /// The profile is non-deterministic by nature; everything else in the
  /// Result stays byte-stable. Off by default.
  bool profile = false;
  /// Attach the invariant auditor: engine/storage probes run during the
  /// simulation, the flow network is certified max-min fair after every
  /// solve, and the finished Result is cross-checked. Violations are
  /// collected (never thrown) and exported as Result::audit (schema
  /// bbsim.audit.v1).
  bool audit = false;
  /// Fold the run's events into a causal summary per task (readiness
  /// causes, aborted attempts, per-tier byte mixes, checkpoint stalls) and
  /// run the post-run critical-path / blame-attribution pass, exported as
  /// Result::critpath (schema bbsim.critpath.v1). Off by default: a run
  /// without it is bitwise-identical to one predating the layer.
  bool critpath = false;
  /// Multiplier applied to every compute duration (testbed noise hook).
  std::function<double(const wf::Task&, std::size_t host)> compute_noise;
  /// Failure injection: seeded node-crash / BB-degradation / PFS-brownout
  /// arrival processes (src/resil). A disabled spec (the default) leaves
  /// the run bitwise-identical to an engine without the resilience layer.
  resil::FaultSpec faults;
  /// Checkpoint-to-BB policy: how running tasks snapshot progress so a
  /// crash rolls them back to their last *drained* checkpoint instead of
  /// to zero. Meaningful on its own too (pure-overhead measurement).
  resil::CheckpointSpec checkpoint;
};

/// One simulated execution of one workflow on one platform.
class Simulation {
 public:
  Simulation(platform::PlatformSpec platform, const wf::Workflow& workflow,
             ExecutionConfig config = {});
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Access for hooks (perturbations) before run().
  platform::Fabric& fabric() { return fabric_; }
  storage::StorageSystem& storage() { return storage_; }
  const wf::Workflow& workflow() const { return workflow_; }
  const ExecutionConfig& config() const { return config_; }
  /// The live metrics registry; nullptr unless config.collect_metrics.
  stats::MetricsRegistry* metrics() { return metrics_.get(); }
  /// The live timeline recorder; nullptr unless config.collect_timeline.
  trace::TimelineRecorder* timeline_recorder() { return timeline_rec_.get(); }
  /// The live wall-clock profiler; nullptr unless config.profile.
  trace::Profiler* profiler() { return profiler_.get(); }
  /// The live invariant auditor; nullptr unless config.audit.
  audit::Auditor* auditor() { return auditor_.get(); }

  /// Runs to completion and returns the records. Callable once.
  Result run();

 private:
  // ------------------------------------------------------ per-task state
  /// Where a task is in its lifecycle. A started task runs
  /// [Restarting ->] Reading -> Computing [-> Checkpointing -> Computing
  /// ...] -> Writing -> Done, or Staging -> Done for a stage-in task. A
  /// kill sends a started task back to Ready (requeued) or Waiting (a
  /// parent re-runs first); a rollback does the same to a Done task.
  enum class Phase : std::uint8_t {
    Waiting,        ///< some parent has not finished
    Ready,          ///< in ready_queue_
    Restarting,     ///< restart delay; pending_event is live
    Reading,        ///< the input window is in flight
    Computing,      ///< a compute segment; pending_event is live
    Checkpointing,  ///< the blocking checkpoint write (ckpt_op) is in flight
    Writing,        ///< the output window is in flight
    Staging,        ///< a stage-in task copies its files
    Done,
  };
  /// Progress through one file list of which at most a width is in flight
  /// (see pump()).
  struct Window {
    std::size_t next = 0;      ///< next file to start or skip
    std::size_t inflight = 0;  ///< started and not yet landed
  };
  struct TaskState {
    const wf::Task* task = nullptr;
    wf::TaskId id = 0;
    Phase phase = Phase::Waiting;
    std::size_t topo_index = 0;
    double priority = 0.0;  ///< scheduler key (upward rank / work)
    std::size_t remaining_parents = 0;
    int cores = 1;
    bool pinned = false;         ///< must run on home_host
    std::size_t home_host = 0;   ///< preferred host (locality pinning)
    std::size_t host = 0;
    Window io;  ///< the read, write or stage-in window of the phase
    TaskRecord record;
    // Compute segments and resilience bookkeeping (attempts, I/O handles
    // and checkpoints change only when the resil layer is active).
    int attempt = 0;                 ///< restarts so far (0 = first attempt)
    sim::EventId pending_event = 0;  ///< restart delay or compute segment
    std::vector<storage::IoHandle> io_ops;  ///< cancellable in-flight I/O
    storage::IoHandle ckpt_op;   ///< blocking checkpoint write in flight
    storage::IoHandle drain_op;  ///< async checkpoint drain BB -> PFS
    double compute_total = 0.0;  ///< full compute time of this attempt
    double compute_done = 0.0;   ///< compute seconds already banked
    double segment_start = 0.0;  ///< engine time the running segment began
    double ckpt_durable = 0.0;   ///< progress recoverable from the PFS
    double ckpt_size = 0.0;      ///< bytes of the last checkpoint written
    double ckpt_write_start = 0.0;
    /// "<task>.ckpt", built at the first checkpoint; storage reads it for
    /// labels, errors and the PFS placement of the image.
    std::string ckpt_name;
    /// This task's events, folded for the critical-path pass (set iff
    /// config.critpath).
    std::unique_ptr<critpath::TaskTrace> causal;

    /// Started, not yet done: the phases between Ready and Done.
    bool holds_cores() const { return phase > Phase::Ready && phase < Phase::Done; }
  };

  wf::Workflow workflow_;
  ExecutionConfig config_;
  // The instruments of the observer bundle (make_sinks). Declared before
  // fabric_ so they are built before every layer and outlive them all.
  std::unique_ptr<stats::MetricsRegistry> metrics_;  ///< set iff collect_metrics
  std::unique_ptr<trace::TimelineRecorder> timeline_rec_;  ///< iff collect_timeline
  std::unique_ptr<trace::Profiler> profiler_;              ///< iff profile
  // Invariant auditing (set iff config.audit).
  std::unique_ptr<audit::Auditor> auditor_;
  std::unique_ptr<audit::EngineProbe> engine_probe_;
  std::unique_ptr<audit::StorageProbe> storage_probe_;
  std::unique_ptr<audit::SolveProbe> solve_probe_;
  platform::Fabric fabric_;
  storage::StorageSystem storage_;
  trace::ProfileSection* placement_profile_ = nullptr;  ///< iff profile

  /// Indexed by TaskId. Sized once in prepare(), so the pointers into it
  /// (ready_queue_, event callbacks) stay valid for the whole run.
  std::vector<TaskState> states_;
  std::vector<wf::TaskId> topo_order_;
  std::vector<int> free_cores_;
  /// Ready tasks in dispatch order.
  std::deque<TaskState*> ready_queue_;
  /// Bumped on every try_schedule() entry, so a scan can tell that
  /// start_task re-entered it (the only way start_task edits the queue).
  std::uint64_t schedule_epoch_ = 0;
  std::vector<wf::FileId> staged_files_;
  /// By TaskId (empty without stage-in tasks): which staged files each
  /// stage-in task copies (the whole list for a single stage-in;
  /// partitioned by descendant consumers otherwise).
  std::vector<std::vector<wf::FileId>> staged_by_task_;
  std::vector<std::size_t> staged_file_host_;  ///< by FileId: via host of a staged file
  std::size_t tasks_remaining_ = 0;
  std::size_t demoted_writes_ = 0;
  std::size_t skipped_stage_files_ = 0;
  std::vector<TraceEvent> trace_;
  double stage_in_start_ = 0.0;
  double stage_in_end_ = 0.0;
  bool stage_in_seen_ = false;
  double stage_out_start_ = 0.0;
  double stage_out_duration_ = 0.0;
  std::vector<wf::FileId> stage_out_files_;
  Window stage_out_;
  std::size_t evicted_files_ = 0;
  std::vector<double> last_access_;  ///< by FileId: last read time (LRU)
  bool ran_ = false;

  /// Live state of the failure injector / checkpoint machinery. Null unless
  /// config.faults or config.checkpoint enabled it -- every resil branch in
  /// the engine is gated on this pointer, so a disabled run replays the
  /// exact event sequence of an engine without the layer.
  struct ResilState {
    ResilState(const resil::FaultSpec& spec, std::size_t host_count, std::size_t task_count)
        : model(spec, host_count), host_up(host_count, 1), tasks(task_count) {}
    resil::FaultModel model;
    resil::RunStats stats;  ///< run totals; collect_result() adds `tasks`
    std::vector<char> host_up;  ///< 0 while a host is crashed
    std::vector<resil::TaskResil> tasks;  ///< by TaskId
    trace::TrackId hosts_down_track = 0;  ///< set iff timeline_rec_
  };
  std::unique_ptr<ResilState> resil_;

  /// Build the instruments config_ asks for and return the bundle that
  /// attaches them (runs before fabric_ is constructed).
  obs::Sinks make_sinks();

  // ------------------------------------------------------------- phases
  void prepare();  ///< placement, pinning, (implicit) staging, readiness
  void try_schedule();            ///< drain the ready queue onto free cores
  static constexpr std::size_t kNoHost = static_cast<std::size_t>(-1);
  /// The host the scheduler would start `ts` on now, or kNoHost.
  std::size_t pick_host(const TaskState& ts) const;
  void start_task(TaskState& ts, std::size_t host);
  /// The one transfer window: starts `files` in order while fewer than
  /// `width` are in flight. `start(file)` returns false to skip a file, or
  /// starts one transfer whose completion decrements `window.inflight` and
  /// pumps again; a transfer never lands inside `start` (storage defers
  /// even a zero-latency one by an event). Runs `done` once every file has
  /// been started or skipped and every transfer has landed.
  template <class Start, class Done>
  void pump(Window& window, std::span<const wf::FileId> files, std::size_t width,
            const Start& start, const Done& done);
  void run_stage_in(TaskState& ts);
  /// Copy `files` from the PFS to the BB, `stage_in_width` at a time, for
  /// the stage-in task `ts` (nullptr for prepare()'s implicit pre-phase).
  void pump_stage_in(TaskState* ts, Window& window, std::span<const wf::FileId> files);
  /// Partition staged_files_ among the workflow's stage-in tasks.
  void build_stage_partition();
  void issue_reads(TaskState& ts);
  void on_reads_done(TaskState& ts);
  void on_compute_done(TaskState& ts);
  void issue_writes(TaskState& ts);
  void finish_task(TaskState& ts);
  /// Compute scheduler priorities for every task (policy-dependent).
  void compute_priorities();
  /// Insert into the ready queue respecting the scheduler policy.
  void enqueue_ready(TaskState& ts);
  /// Mark `ts` ready now, queue it and record why (`parent` names the
  /// parent whose completion readied it).
  void make_ready(TaskState& ts, critpath::ReadyCause::Kind cause,
                  std::string_view parent = {});
  /// Drain BB-resident final outputs to the PFS (stage_out option).
  void run_stage_out();
  /// Pump stage_out_files_ through a window of width 1.
  void drain_stage_out();
  /// Evict LRU staged inputs until `bytes` fit (bb_eviction option).
  bool try_evict(double bytes);

  // ------------------------------------------------ resilience (src/resil)
  void setup_resil();  ///< create ResilState + seed the fault arrival events
  void schedule_node_crash(std::size_t host, double at);
  void on_node_crash(std::size_t host);
  void on_node_repair(std::size_t host);
  void schedule_bb_fault(double at);
  void on_bb_degrade();
  void schedule_pfs_fault(double at);
  void on_pfs_brownout();
  /// Abort a running attempt: cancel its compute event and in-flight I/O,
  /// roll capacity reservations back, free its cores and account the lost
  /// work. With `requeue` the task re-enters the ready queue immediately;
  /// without, the caller re-wires its dependence edges first (rollback).
  void kill_task(TaskState& ts, bool requeue);
  /// Un-do a *completed* task whose output was lost with a crashed node:
  /// it re-runs, non-done children wait for it again, and lost inputs of
  /// its own are re-produced recursively.
  void rollback_task(TaskState& ts);
  /// Re-produce `file` if no replica survives anywhere (lineage recovery).
  void ensure_file_available(wf::FileId file);
  /// A burst-buffer-only workflow file vanished with its node.
  void on_file_lost(wf::FileId file);
  bool host_available(std::size_t host) const;
  /// Queue the task's input reads (start_task tail; split out so a restart
  /// delay can precede it).
  void begin_reads(TaskState& ts);
  /// Schedule the next compute segment (the whole remainder when the task
  /// does not checkpoint), then checkpoint or finish.
  void run_compute_segment(TaskState& ts);
  void take_checkpoint(TaskState& ts);
  /// Checkpoint image size for this task (0 = never checkpoint).
  double checkpoint_bytes(const TaskState& ts) const;
  /// Seconds of compute between checkpoints (0 = no checkpointing).
  double checkpoint_interval(const TaskState& ts);
  /// Drop the task's checkpoint replicas and cancel its in-flight drain.
  void cleanup_checkpoints(TaskState& ts);
  /// Cancel the task's in-flight checkpoint drain, if any; the image's
  /// bytes count as discarded.
  void cancel_drain(TaskState& ts);
  void sample_hosts_down();

  // ------------------------------------------------------------ helpers
  // Storage keys: a workflow file's FileId, and file_count + TaskId for a
  // task's checkpoint image, which is outside the workflow's file set (so
  // byte-conservation audits, which track declared files, ignore it).
  storage::FileRef file_ref(wf::FileId f) const {
    const wf::File& file = workflow_.file(f);
    return {f, file.size, file.name};
  }
  storage::FileKey checkpoint_key(const TaskState& ts) const {
    return static_cast<storage::FileKey>(workflow_.file_count() + ts.id);
  }
  /// The name of a stored key: the file's, or the image's "<task>.ckpt".
  std::string_view key_name(storage::FileKey key) const {
    const std::size_t files = workflow_.file_count();
    return key < files ? std::string_view(workflow_.file(key).name)
                       : std::string_view(states_[key - files].ckpt_name);
  }
  int cores_for(const wf::Task& task) const;
  /// The tier `ts` writes `file` to, given the policy's `requested` tier:
  /// a BB choice that a pinned consumer could not read becomes the PFS.
  Tier output_tier(const TaskState& ts, wf::FileId file, Tier requested) const;
  /// True when the BB has room for `bytes` more.
  bool bb_has_room(double bytes);
  /// True when `bytes` fit in the BB, or fit after LRU eviction when
  /// bb_eviction is on.
  bool bb_admits(double bytes);
  storage::StorageService* bb() { return storage_.burst_buffer(); }
  /// Record one run fact, the only place exec does: the event is appended
  /// to the trace (collect_trace, exported kinds) and folded into the
  /// task's causal summary (critpath). `ts` is null for events that belong
  /// to no task; `event.task` then names them. Builds nothing when neither
  /// consumer is on.
  void trace(TraceEventKind kind, TaskState* ts, TraceEventView event = {});
  /// Increment a named metrics counter (no-op when metrics are off).
  void bump(const char* counter_name, double delta = 1.0);
  double compute_duration(const TaskState& ts) const;
  Result collect_result();
};

}  // namespace bbsim::exec
