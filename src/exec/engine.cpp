#include "exec/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/validate.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::exec {

using platform::StorageKind;
using util::ConfigError;
using util::InvariantError;
using ReadyKind = critpath::ReadyCause::Kind;

namespace {
constexpr const char* kStageInType = "stage_in";
/// Checkpoint files are "<task>.ckpt": outside the workflow's file set, so
/// byte-conservation audits (which track declared files) ignore them.
constexpr const char* kCkptSuffix = ".ckpt";

critpath::TierIo& tier_io(Tier tier, critpath::TierIo& bb, critpath::TierIo& pfs) {
  return tier == Tier::BurstBuffer ? bb : pfs;
}

/// Fold one event of a task into its causal summary. `rec` is the task's
/// record as it stands when the event is emitted.
void fold(critpath::TaskTrace& tr, const TaskRecord& rec, const TraceEventView& e) {
  critpath::AttemptTally& attempt = tr.attempt;
  switch (e.kind) {
    case TraceEventKind::TaskReady:
      tr.ready.push_back({e.time, {e.cause, std::string(e.parent)}});
      return;
    case TraceEventKind::TaskKilled:
    case TraceEventKind::Rollback:
      // The attempt died: its window becomes rework and its tallies go
      // with it.
      tr.aborted.push_back({rec.t_ready, rec.t_start, e.time});
      attempt = {};
      return;
    case TraceEventKind::TaskRestart:
      attempt.restart_delay_seconds += e.amount;
      return;
    case TraceEventKind::Read: {
      critpath::TierIo& io = tier_io(e.tier, attempt.read_bb, attempt.read_pfs);
      io.bytes += e.amount;
      ++io.ops;
      return;
    }
    case TraceEventKind::Write: {
      critpath::TierIo& io = tier_io(e.tier, attempt.write_bb, attempt.write_pfs);
      io.bytes += e.amount;
      ++io.ops;
      return;
    }
    case TraceEventKind::CheckpointDone:
      if (e.tier == Tier::BurstBuffer) {
        attempt.ckpt_bb_seconds += e.amount;
      } else {
        attempt.ckpt_pfs_seconds += e.amount;
      }
      return;
    default:
      return;
  }
}
}  // namespace

const char* to_string(StageInMode mode) {
  return mode == StageInMode::Task ? "task" : "instant";
}

StageInMode stage_in_mode_from_string(const std::string& name) {
  for (const StageInMode mode : {StageInMode::Task, StageInMode::Instant}) {
    if (name == to_string(mode)) return mode;
  }
  throw ConfigError("unknown stage-in mode '" + name + "'");
}

const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::Fcfs: return "fcfs";
    case SchedulerPolicy::CriticalPathFirst: return "critical_path";
    case SchedulerPolicy::LargestFirst: return "largest_first";
    case SchedulerPolicy::SmallestFirst: return "smallest_first";
  }
  return "?";
}

SchedulerPolicy scheduler_from_string(const std::string& name) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::Fcfs, SchedulerPolicy::CriticalPathFirst,
        SchedulerPolicy::LargestFirst, SchedulerPolicy::SmallestFirst}) {
    if (name == to_string(policy)) return policy;
  }
  throw ConfigError("unknown scheduler '" + name + "'");
}

Simulation::Simulation(platform::PlatformSpec platform, const wf::Workflow& workflow,
                       ExecutionConfig config)
    : workflow_(workflow),
      config_(std::move(config)),
      fabric_(std::move(platform), make_sinks()),
      storage_(fabric_) {
  if (!config_.placement) config_.placement = all_bb_policy();
  workflow_.validate();
  if (timeline_rec_) {
    std::vector<std::string> host_names;
    host_names.reserve(fabric_.spec().hosts.size());
    for (const auto& h : fabric_.spec().hosts) host_names.push_back(h.name);
    timeline_rec_->set_host_names(std::move(host_names));
  }
  if (profiler_) placement_profile_ = profiler_->section("exec.placement");
}

obs::Sinks Simulation::make_sinks() {
  obs::Sinks sinks;
  if (config_.collect_metrics) {
    metrics_ = std::make_unique<stats::MetricsRegistry>();
    sinks.metrics = metrics_.get();
  }
  if (config_.collect_timeline) {
    timeline_rec_ = std::make_unique<trace::TimelineRecorder>();
    sinks.timeline = timeline_rec_.get();
  }
  if (config_.profile) {
    profiler_ = std::make_unique<trace::Profiler>();
    sinks.profiler = profiler_.get();
  }
  if (config_.audit) {
    auditor_ = std::make_unique<audit::Auditor>(metrics_.get());
    // The probes read the clock only once events run, after fabric_ exists.
    const auto now = [this] { return fabric_.engine().now(); };
    engine_probe_ = std::make_unique<audit::EngineProbe>(*auditor_);
    storage_probe_ = std::make_unique<audit::StorageProbe>(*auditor_, now);
    solve_probe_ = std::make_unique<audit::SolveProbe>(*auditor_, now);
    for (const wf::File& f : workflow_.files()) {
      storage_probe_->set_expected_size(f.name, f.size);
    }
    sinks.engine_observer = engine_probe_.get();
    sinks.storage_observer = storage_probe_.get();
    sinks.solve_observer = solve_probe_.get();
  }
  return sinks;
}

void Simulation::bump(const char* counter_name, double delta) {
  if (metrics_) metrics_->counter(counter_name).add(delta);
}

int Simulation::cores_for(const wf::Task& task) const {
  if (task.type == kStageInType) return 1;  // always sequential (paper Sec. III-D)
  int cores = task.requested_cores;
  if (config_.force_cores > 0) cores = config_.force_cores;
  const auto it = config_.cores_by_type.find(task.type);
  if (it != config_.cores_by_type.end()) cores = it->second;
  return std::max(1, cores);
}

void Simulation::trace(TraceEventKind kind, TaskState* ts, TraceEventView e) {
  const bool store = config_.collect_trace && exported(kind);
  critpath::TaskTrace* causal = ts != nullptr ? ts->causal.get() : nullptr;
  if (!store && causal == nullptr) return;
  e.time = fabric_.engine().now();
  e.kind = kind;
  if (ts != nullptr) e.task = ts->task->name;
  if (store) {
    trace_.push_back(TraceEvent{e.time, e.kind, std::string(e.task), std::string(e.file),
                                std::string(e.service), std::string(e.parent), e.host,
                                e.count, e.amount, e.scale, e.duration, e.tier, e.cause});
  }
  if (causal != nullptr) fold(*causal, ts->record, e);
}

void Simulation::prepare() {
  const auto& hosts = fabric_.spec().hosts;
  free_cores_.clear();
  for (const auto& h : hosts) free_cores_.push_back(h.cores);
  int max_cores = 0;
  for (const auto& h : hosts) max_cores = std::max(max_cores, h.cores);

  topo_order_ = workflow_.topological_order();

  // Staging plan.
  storage::StorageService* bb_svc = bb();
  staged_files_.clear();
  if (bb_svc != nullptr) {
    const trace::ScopedTimer timer(placement_profile_);
    staged_files_ = config_.placement->files_to_stage(workflow_);
  }
  // Implicit stage-in: a Task-mode plan on a workflow without a stage-in
  // task stages everything up front, before entry tasks become ready.
  const auto tasks = workflow_.tasks();
  const bool implicit_stage_in =
      config_.stage_in_mode == StageInMode::Task && !staged_files_.empty() &&
      std::none_of(tasks.begin(), tasks.end(),
                   [](const wf::Task& t) { return t.type == kStageInType; });

  // Locality pinning when the burst buffer restricts reads by node. Staged
  // files travel via their first consumer's home, which the implicit
  // stage-in takes from the pinning even when pinning is off.
  const bool pin =
      config_.locality_pinning && bb_svc != nullptr && bb_svc->node_restricted();
  std::vector<std::size_t> homes;
  if (pin || implicit_stage_in) {
    homes = compute_home_hosts(workflow_, fabric_.spec(), config_.pinning);
  }

  states_.resize(tasks.size());
  for (wf::TaskId id = 0; id < tasks.size(); ++id) {
    const wf::Task& t = tasks[id];
    TaskState& st = states_[id];
    st.task = &t;
    st.id = id;
    st.remaining_parents = workflow_.parents(id).size();
    st.cores = cores_for(t);
    if (st.cores > max_cores) {
      throw ConfigError("task '" + t.name + "' wants " + std::to_string(st.cores) +
                        " cores but the largest host has " + std::to_string(max_cores));
    }
    st.home_host = homes.empty() ? 0 : homes[id];
    st.pinned = pin;
    st.record.name = t.name;
    st.record.type = t.type;
    st.record.cores = st.cores;
    if (config_.critpath) st.causal = std::make_unique<critpath::TaskTrace>();
  }
  for (std::size_t i = 0; i < topo_order_.size(); ++i) states_[topo_order_[i]].topo_index = i;
  tasks_remaining_ = tasks.size();
  last_access_.assign(workflow_.file_count(), 0.0);

  // Initial dataset: all workflow inputs on the PFS.
  storage::StorageService& pfs = storage_.pfs();
  for (const wf::FileId f : workflow_.input_files()) {
    const wf::File& file = workflow_.file(f);
    pfs.register_file(storage::FileRef{file.name, file.size}, 0);
  }

  staged_file_host_.assign(workflow_.file_count(), 0);
  for (const wf::FileId f : staged_files_) {
    const auto consumers = workflow_.consumers(f);
    if (!consumers.empty()) staged_file_host_[f] = states_[consumers.front()].home_host;
  }
  if (config_.stage_in_mode == StageInMode::Instant && bb_svc != nullptr) {
    for (const wf::FileId f : staged_files_) {
      const wf::File& file = workflow_.file(f);
      if (!bb_has_room(file.size) && !(config_.bb_eviction && try_evict(file.size))) {
        ++skipped_stage_files_;
        bump("storage.skipped_stage_ins");
        continue;
      }
      bb_svc->register_file(storage::FileRef{file.name, file.size}, staged_file_host_[f]);
    }
  }
  build_stage_partition();
  if (implicit_stage_in) {
    // Stage sequentially and drain, then release the workflow.
    stage_in_seen_ = true;
    auto chain = std::make_shared<StageChain>();
    chain->files = &staged_files_;
    pump_stage_chain(chain);
    fabric_.engine().run();
  }

  compute_priorities();

  // Mark entry tasks ready.
  for (const wf::TaskId id : topo_order_) {
    TaskState& st = states_[id];
    if (st.remaining_parents == 0) make_ready(st, ReadyKind::kWorkflowStart);
  }
  setup_resil();
  try_schedule();
}

void Simulation::compute_priorities() {
  switch (config_.scheduler) {
    case SchedulerPolicy::Fcfs:
      for (TaskState& st : states_) st.priority = 0.0;
      return;
    case SchedulerPolicy::LargestFirst:
      for (TaskState& st : states_) st.priority = st.task->flops;
      return;
    case SchedulerPolicy::SmallestFirst:
      for (TaskState& st : states_) st.priority = -st.task->flops;
      return;
    case SchedulerPolicy::CriticalPathFirst: {
      // Upward rank: a task's sequential work plus the heaviest downstream
      // chain (HEFT's rank_u without communication terms).
      for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
        TaskState& st = states_[*it];
        double best_child = 0.0;
        for (const wf::TaskId child : workflow_.children(*it)) {
          best_child = std::max(best_child, states_[child].priority);
        }
        st.priority = st.task->flops + best_child;
      }
      return;
    }
  }
}

void Simulation::enqueue_ready(TaskState& ts) {
  if (config_.scheduler == SchedulerPolicy::Fcfs) {
    ready_queue_.push_back(&ts);
    return;
  }
  auto pos = ready_queue_.begin();
  for (; pos != ready_queue_.end(); ++pos) {
    const TaskState& other = **pos;
    if (ts.priority > other.priority ||
        (ts.priority == other.priority && ts.topo_index < other.topo_index)) {
      break;
    }
  }
  ready_queue_.insert(pos, &ts);
}

void Simulation::make_ready(TaskState& ts, ReadyKind cause, std::string_view parent) {
  ts.ready = true;
  ts.record.t_ready = fabric_.engine().now();
  enqueue_ready(ts);
  trace(TraceEventKind::TaskReady, &ts, {.parent = parent, .cause = cause});
}

std::size_t Simulation::pick_host(const TaskState& ts) const {
  if (ts.pinned) {
    // Wait for the home host unless it can never fit the request.
    if (fabric_.spec().hosts[ts.home_host].cores >= ts.cores) {
      return host_available(ts.home_host) && free_cores_[ts.home_host] >= ts.cores
                 ? ts.home_host
                 : kNoHost;
    }
    for (std::size_t h = 0; h < free_cores_.size(); ++h) {
      if (host_available(h) && free_cores_[h] >= ts.cores) return h;
    }
    return kNoHost;
  }
  // Least-loaded host with room (ties -> lowest index).
  std::size_t chosen = kNoHost;
  int best_free = -1;
  for (std::size_t h = 0; h < free_cores_.size(); ++h) {
    if (host_available(h) && free_cores_[h] >= ts.cores && free_cores_[h] > best_free) {
      best_free = free_cores_[h];
      chosen = h;
    }
  }
  return chosen;
}

void Simulation::try_schedule() {
  // Starting a task only takes cores away, so a task that found no host
  // earlier in this pass still finds none: one pass suffices, resuming at
  // the erased position. The exception is a start_task that re-entered
  // (a stage-in whose every file is skipped finishes synchronously and
  // its finish_task schedules again): that freed cores and edited the
  // queue behind the iterator, so the pass starts over.
  std::uint64_t epoch = ++schedule_epoch_;
  for (auto it = ready_queue_.begin(); it != ready_queue_.end();) {
    TaskState& ts = **it;
    const std::size_t host = pick_host(ts);
    if (host == kNoHost) {
      ++it;
      continue;
    }
    it = ready_queue_.erase(it);
    start_task(ts, host);
    if (schedule_epoch_ != epoch) {
      epoch = schedule_epoch_;
      it = ready_queue_.begin();
    }
  }
}

void Simulation::start_task(TaskState& ts, std::size_t host) {
  ts.running = true;
  ts.host = host;
  ts.record.host = host;
  free_cores_[host] -= ts.cores;
  ts.record.t_start = fabric_.engine().now();
  trace(TraceEventKind::TaskStart, &ts, {.host = host, .count = ts.cores});

  if (ts.task->type == kStageInType) {
    run_stage_in(ts);
    return;
  }
  if (resil_ != nullptr && ts.attempt > 0) {
    // Restart overhead: re-launch plus reading the checkpoint image back.
    const double delay = std::max(0.0, config_.checkpoint.restart_latency);
    trace(TraceEventKind::TaskRestart, &ts, {.count = ts.attempt + 1, .amount = delay});
    if (delay > 0.0) {
      ts.event_pending = true;
      ts.pending_event = fabric_.engine().schedule_in(delay, [this, &ts] {
        ts.event_pending = false;
        begin_reads(ts);
      });
      return;
    }
  }
  begin_reads(ts);
}

void Simulation::begin_reads(TaskState& ts) {
  ts.reading = true;
  ts.next_io = 0;
  issue_reads(ts);
}

void Simulation::build_stage_partition() {
  staged_by_task_.clear();
  std::vector<wf::TaskId> stage_tasks;
  for (const TaskState& st : states_) {
    if (st.task->type == kStageInType) stage_tasks.push_back(st.id);
  }
  if (stage_tasks.empty()) return;
  staged_by_task_.resize(states_.size());
  if (stage_tasks.size() == 1) {
    staged_by_task_[stage_tasks.front()] = staged_files_;
    return;
  }
  // Several stage-in tasks (one workflow instance per pipeline): each one
  // copies the staged files its descendants consume. `seen` and `wanted`
  // hold the stamp (1 + index) of the last stage-in that marked them.
  std::vector<char> assigned(workflow_.file_count(), 0);
  std::vector<std::size_t> seen(states_.size(), 0);
  std::vector<std::size_t> wanted(workflow_.file_count(), 0);
  for (std::size_t k = 0; k < stage_tasks.size(); ++k) {
    const std::size_t stamp = k + 1;
    std::vector<wf::TaskId> frontier{stage_tasks[k]};  // BFS over descendants
    seen[stage_tasks[k]] = stamp;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const wf::TaskId child : workflow_.children(frontier[head])) {
        if (std::exchange(seen[child], stamp) != stamp) frontier.push_back(child);
      }
      for (const wf::FileId f : workflow_.inputs(frontier[head])) wanted[f] = stamp;
    }
    for (const wf::FileId f : staged_files_) {
      if (wanted[f] == stamp && std::exchange(assigned[f], 1) == 0) {
        staged_by_task_[stage_tasks[k]].push_back(f);
      }
    }
  }
  // Leftovers (staged files no stage-in task covers) go to the first task.
  for (const wf::FileId f : staged_files_) {
    if (std::exchange(assigned[f], 1) == 0) staged_by_task_[stage_tasks.front()].push_back(f);
  }
}

void Simulation::run_stage_in(TaskState& ts) {
  const double now = fabric_.engine().now();
  if (!stage_in_seen_ || now < stage_in_start_) stage_in_start_ = now;
  stage_in_seen_ = true;
  // build_stage_partition() gave every task an entry: this is a stage-in.
  const std::vector<wf::FileId>& files = staged_by_task_[ts.id];
  if (config_.stage_in_mode == StageInMode::Instant || files.empty() || bb() == nullptr) {
    // Nothing to move (pre-staged or no BB): finish via a zero-delay event.
    fabric_.engine().schedule_in(0.0, [this, &ts] {
      const double t = fabric_.engine().now();
      ts.record.t_reads_done = t;
      ts.record.t_compute_done = t;
      stage_in_end_ = std::max(stage_in_end_, t);
      finish_task(ts);
    });
    return;
  }
  auto chain = std::make_shared<StageChain>();
  chain->ts = &ts;
  chain->files = &files;
  pump_stage_chain(chain);
}

void Simulation::finish_stage_chain(const StageChain& chain) {
  const double now = fabric_.engine().now();
  stage_in_end_ = std::max(stage_in_end_, now);
  if (chain.ts != nullptr) {
    chain.ts->record.t_reads_done = now;
    chain.ts->record.t_compute_done = now;
    finish_task(*chain.ts);
  }
}

void Simulation::pump_stage_chain(const std::shared_ptr<StageChain>& chain) {
  const std::size_t width =
      static_cast<std::size_t>(std::max(1, config_.stage_in_width));
  while (chain->next < chain->files->size() && chain->inflight < width) {
    const wf::FileId f = (*chain->files)[chain->next++];
    const wf::File& spec = workflow_.file(f);
    if (!bb_has_room(spec.size) && !(config_.bb_eviction && try_evict(spec.size))) {
      // The allocation is full: the file stays on the PFS (and is counted).
      ++skipped_stage_files_;
      bump("storage.skipped_stage_ins");
      trace(TraceEventKind::StageSkipped, chain->ts,
            {.task = "implicit_stage_in", .file = spec.name});
      continue;
    }
    const storage::FileRef file{spec.name, spec.size};
    const std::size_t via_host = staged_file_host_[f];
    if (chain->ts != nullptr) {
      chain->ts->record.bytes_read += file.size;
      chain->ts->record.bytes_written += file.size;
    }
    trace(TraceEventKind::StageFile, chain->ts,
          {.task = "implicit_stage_in", .file = spec.name, .host = via_host});
    ++chain->inflight;
    storage_.transfer(file, storage_.pfs(), *bb(), via_host, [this, chain] {
      --chain->inflight;
      pump_stage_chain(chain);
    });
  }
  if (chain->next >= chain->files->size() && chain->inflight == 0) {
    finish_stage_chain(*chain);
  }
}

void Simulation::issue_reads(TaskState& ts) {
  const std::size_t window = static_cast<std::size_t>(ts.cores);
  const auto inputs = workflow_.inputs(ts.id);
  while (ts.next_io < inputs.size() && ts.inflight_io < window) {
    const wf::FileId f = inputs[ts.next_io++];
    const wf::File& spec = workflow_.file(f);
    storage::StorageService* src = storage_.best_source(spec.name, ts.host);
    if (src == nullptr) {
      throw InvariantError("task '" + ts.task->name + "' cannot read file '" + spec.name +
                           "' from host " + std::to_string(ts.host) +
                           " (no readable replica)");
    }
    last_access_[f] = fabric_.engine().now();  // LRU bookkeeping
    const storage::FileRef file{spec.name, spec.size};
    ts.record.bytes_read += file.size;
    trace(TraceEventKind::Read, &ts,
          {.file = spec.name,
           .amount = file.size,
           .tier = src != &storage_.pfs() ? Tier::BurstBuffer : Tier::PFS});
    if (metrics_) {
      // How long this transfer waited in the task's pending queue (the
      // paper's I/O window is `cores` concurrent files).
      metrics_->histogram("flow.queue_wait_seconds")
          .record(fabric_.engine().now() - ts.record.t_start);
    }
    ++ts.inflight_io;
    auto done = [this, &ts] {
      --ts.inflight_io;
      if (ts.next_io == workflow_.inputs(ts.id).size() && ts.inflight_io == 0) {
        on_reads_done(ts);
      } else {
        issue_reads(ts);
      }
    };
    // Keeping the handle lets kill_task() abort the attempt's I/O.
    storage::IoHandle op = src->read(file, ts.host, std::move(done));
    if (resil_ != nullptr) ts.io_ops.push_back(std::move(op));
  }
  if (inputs.empty()) on_reads_done(ts);
}

double Simulation::compute_duration(const TaskState& ts) const {
  const wf::Task& t = *ts.task;
  if (t.flops <= 0.0) return 0.0;
  const double core_speed = fabric_.spec().hosts[ts.host].core_speed;
  const double t_seq = t.flops / core_speed;
  double duration = model::amdahl_time(t_seq, ts.cores, t.alpha);
  if (config_.compute_noise) duration *= config_.compute_noise(t, ts.host);
  return duration;
}

void Simulation::on_reads_done(TaskState& ts) {
  ts.record.t_reads_done = fabric_.engine().now();
  ts.reading = false;
  trace(TraceEventKind::ReadsDone, &ts);
  ts.compute_total = compute_duration(ts);
  // A restarted attempt resumes from its last durable (drained) checkpoint.
  // Without checkpoints that is 0 and the interval is 0, so the whole
  // compute is one segment.
  ts.compute_done = std::min(ts.ckpt_durable, ts.compute_total);
  run_compute_segment(ts);
}

void Simulation::run_compute_segment(TaskState& ts) {
  const double remaining = std::max(0.0, ts.compute_total - ts.compute_done);
  const double tau = checkpoint_interval(ts);
  const bool will_checkpoint = tau > 0.0 && remaining > tau;
  const double seg = will_checkpoint ? tau : remaining;
  ts.in_segment = true;
  ts.segment_start = fabric_.engine().now();
  ts.event_pending = true;
  ts.pending_event =
      fabric_.engine().schedule_in(seg, [this, &ts, will_checkpoint, seg] {
        ts.event_pending = false;
        ts.in_segment = false;
        ts.compute_done += seg;
        if (will_checkpoint) {
          take_checkpoint(ts);
        } else {
          on_compute_done(ts);
        }
      });
}

double Simulation::checkpoint_bytes(const TaskState& ts) const {
  const resil::CheckpointSpec& ck = config_.checkpoint;
  if (ck.bytes > 0.0) return ck.bytes;
  double base = 0.0;
  for (const wf::FileId f : workflow_.outputs(ts.id)) base += workflow_.file(f).size;
  if (base <= 0.0) {
    for (const wf::FileId f : workflow_.inputs(ts.id)) base += workflow_.file(f).size;
  }
  return ck.fraction * base;
}

double Simulation::checkpoint_interval(const TaskState& ts) {
  const resil::CheckpointSpec& ck = config_.checkpoint;
  if (!ck.enabled()) return 0.0;
  if (ts.task->type == kStageInType) return 0.0;
  if (ts.compute_total < ck.min_compute) return 0.0;
  const double bytes = checkpoint_bytes(ts);
  if (bytes <= 0.0) return 0.0;
  if (ck.mode == resil::CheckpointSpec::Mode::Interval) return ck.interval;
  // Young/Daly optimum tau = sqrt(2 C M): estimate the checkpoint cost C
  // from the checkpoint tier's nominal per-node disk write bandwidth.
  const double mtbf = config_.faults.node_mtbf;
  if (mtbf <= 0.0) return 0.0;  // no crash process: nothing to optimize for
  const storage::StorageService* dst = storage_.burst_buffer();
  if (dst == nullptr) dst = &storage_.pfs();
  const double bw = dst->spec().disk.write_bw;
  const double cost = bw > 0.0 && bw != platform::kUnlimited ? bytes / bw : 0.0;
  if (cost <= 0.0) return 0.0;  // free checkpoints would fire continuously
  return std::sqrt(2.0 * cost * mtbf);
}

void Simulation::take_checkpoint(TaskState& ts) {
  resil::RunStats& stats = resil_->stats;
  if (ts.drain_op != nullptr) {
    // The previous image is superseded before it finished draining.
    ts.drain_op->cancel();
    ts.drain_op.reset();
    stats.checkpoint_bytes_discarded += ts.ckpt_size;
  }
  const double bytes = checkpoint_bytes(ts);
  const storage::FileRef file{ts.task->name + kCkptSuffix, bytes};
  storage::StorageService* bb_svc = bb();
  const bool to_bb = bb_svc != nullptr && bb_has_room(bytes);
  storage::StorageService& dst = to_bb ? *bb_svc : storage_.pfs();
  ts.ckpt_size = bytes;
  ts.ckpt_write_start = fabric_.engine().now();
  trace(TraceEventKind::Checkpoint, &ts, {.file = file.name, .service = dst.name()});
  bump("resil.checkpoints");
  const double progress = ts.compute_done;
  ts.ckpt_op = dst.write(
      file, ts.host, [this, &ts, progress, bytes, to_bb, file] {
        ts.ckpt_op.reset();
        resil::RunStats& s = resil_->stats;
        ++s.checkpoints_taken;
        s.checkpoint_bytes_written += bytes;
        s.checkpoint_core_seconds +=
            ts.cores * (fabric_.engine().now() - ts.ckpt_write_start);
        trace(TraceEventKind::CheckpointDone, &ts,
              {.amount = fabric_.engine().now() - ts.ckpt_write_start,
               .tier = to_bb ? Tier::BurstBuffer : Tier::PFS});
        if (to_bb) {
          // Asynchronous drain: the image only protects against node loss
          // once its PFS copy exists; compute resumes immediately.
          ts.drain_op = storage_.transfer(
              file, *bb(), storage_.pfs(), ts.host, [this, &ts, progress, bytes] {
                ts.drain_op.reset();
                resil_->stats.checkpoint_bytes_drained += bytes;
                ts.ckpt_durable = progress;
                trace(TraceEventKind::CheckpointDrained, &ts);
              });
        } else {
          ts.ckpt_durable = progress;  // written straight to the PFS
        }
        run_compute_segment(ts);
      });
}

void Simulation::on_compute_done(TaskState& ts) {
  ts.record.t_compute_done = fabric_.engine().now();
  trace(TraceEventKind::ComputeDone, &ts);
  if (workflow_.outputs(ts.id).empty()) {
    finish_task(ts);
    return;
  }
  ts.next_io = 0;
  issue_writes(ts);
}

bool Simulation::bb_has_room(double bytes) {
  const storage::StorageService* bb_svc = storage_.burst_buffer();
  if (bb_svc == nullptr) return false;
  const double cap = bb_svc->total_capacity();
  return cap == platform::kUnlimited || bb_svc->used_bytes() + bytes <= cap;
}

Tier Simulation::output_tier(const TaskState& ts, wf::FileId file, Tier requested) const {
  if (requested != Tier::BurstBuffer) return requested;
  const storage::StorageService* bb_svc = storage_.burst_buffer();
  if (bb_svc == nullptr) return Tier::PFS;
  // Demotion 1: a consumer pinned to another node could never read the
  // replica on a node-restricted BB.
  if (bb_svc->node_restricted()) {
    for (const wf::TaskId consumer : workflow_.consumers(file)) {
      const TaskState& cs = states_[consumer];
      const std::size_t consumer_host = cs.pinned ? cs.home_host : ts.host;
      if (consumer_host != ts.host) return Tier::PFS;
    }
  }
  return Tier::BurstBuffer;
}

void Simulation::issue_writes(TaskState& ts) {
  const std::size_t window = static_cast<std::size_t>(ts.cores);
  const auto outputs = workflow_.outputs(ts.id);
  while (ts.next_io < outputs.size() && ts.inflight_io < window) {
    const wf::FileId f = outputs[ts.next_io++];
    const wf::File& spec = workflow_.file(f);
    Tier requested = Tier::PFS;
    Tier tier = Tier::PFS;
    {
      // The placement decision (policy + demotion rules) is what the
      // profiler attributes to "exec.placement"; issuing the write is not.
      const trace::ScopedTimer placement_timer(placement_profile_);
      requested = config_.placement->place_output(workflow_, ts.id, f);
      tier = output_tier(ts, f, requested);
      if (tier == Tier::BurstBuffer) {
        // Demotion 2: the BB is full (optionally evict staged inputs first).
        if (!bb_has_room(spec.size) && !(config_.bb_eviction && try_evict(spec.size))) {
          tier = Tier::PFS;
        }
      }
    }
    if (requested == Tier::BurstBuffer && tier == Tier::PFS) {
      ++demoted_writes_;
      bump("exec.demoted_writes");
    }
    storage::StorageService& dst =
        tier == Tier::BurstBuffer ? *storage_.burst_buffer() : storage_.pfs();
    const storage::FileRef file{spec.name, spec.size};
    ts.record.bytes_written += file.size;
    if (metrics_) {
      metrics_->histogram("flow.queue_wait_seconds")
          .record(fabric_.engine().now() - ts.record.t_compute_done);
    }
    trace(TraceEventKind::Write, &ts,
          {.file = spec.name, .service = dst.name(), .amount = file.size, .tier = tier});
    ++ts.inflight_io;
    auto done = [this, &ts] {
      --ts.inflight_io;
      if (ts.next_io == workflow_.outputs(ts.id).size() && ts.inflight_io == 0) {
        finish_task(ts);
      } else {
        issue_writes(ts);
      }
    };
    storage::IoHandle op = dst.write(file, ts.host, std::move(done));
    if (resil_ != nullptr) ts.io_ops.push_back(std::move(op));
  }
}

void Simulation::finish_task(TaskState& ts) {
  ts.record.t_end = fabric_.engine().now();
  ts.running = false;
  ts.done = true;
  free_cores_[ts.host] += ts.cores;
  --tasks_remaining_;
  trace(TraceEventKind::TaskEnd, &ts);
  bump("exec.tasks_completed");
  bump("exec.task_wait_time", ts.record.t_start - ts.record.t_ready);
  bump("exec.task_read_time", ts.record.read_time());
  bump("exec.task_compute_time", ts.record.compute_time());
  bump("exec.task_write_time", ts.record.write_time());
  if (resil_ != nullptr) {
    ts.io_ops.clear();  // all completed; drop the (inert) handles
    cleanup_checkpoints(ts);
    resil::TaskResil& tr = resil_->stats.tasks[ts.task->name];
    tr.attempts = ts.attempt + 1;
    if (tr.first_complete_time < 0.0) tr.first_complete_time = ts.record.t_end;
  }

  for (const wf::TaskId child : workflow_.children(ts.id)) {
    TaskState& cs = states_[child];
    // A child that finished before this parent was rolled back keeps its
    // result; re-completing the parent must not unblock it twice.
    if (cs.done) continue;
    if (--cs.remaining_parents == 0) make_ready(cs, ReadyKind::kParent, ts.task->name);
  }
  if (tasks_remaining_ == 0 && config_.stage_out) {
    run_stage_out();
    return;
  }
  try_schedule();
}

void Simulation::run_stage_out() {
  // Drain every final product still (only) in the burst buffer back to the
  // PFS, sequentially -- the mirror image of the stage-in task.
  storage::StorageService* bb_svc = bb();
  if (bb_svc == nullptr) return;
  auto files = std::make_shared<std::vector<wf::FileId>>();
  for (const wf::FileId f : workflow_.output_files()) {
    const std::string& name = workflow_.file(f).name;
    if (bb_svc->has_file(name) && !storage_.pfs().has_file(name)) files->push_back(f);
  }
  if (files->empty()) return;
  drain_stage_out(std::move(files), 0, fabric_.engine().now());
}

void Simulation::drain_stage_out(std::shared_ptr<const std::vector<wf::FileId>> files,
                                 std::size_t index, double start) {
  if (index >= files->size()) {
    stage_out_duration_ = fabric_.engine().now() - start;
    return;
  }
  storage::StorageService* bb_svc = bb();
  const wf::File& spec = workflow_.file((*files)[index]);
  const storage::StorageService::Replica* rep = bb_svc->replica(spec.name);
  const std::size_t via_host = rep != nullptr ? rep->creator_host : 0;
  trace(TraceEventKind::StageOut, nullptr, {.task = "stage_out", .file = spec.name});
  storage_.transfer(storage::FileRef{spec.name, spec.size}, *bb_svc,
                    storage_.pfs(), via_host, [this, files, index, start] {
                      drain_stage_out(files, index + 1, start);
                    });
}

bool Simulation::try_evict(double bytes) {
  storage::StorageService* bb_svc = bb();
  if (bb_svc == nullptr) return false;
  // Eviction candidates: staged *input* files (their PFS master copy makes
  // eviction safe), least recently read first.
  std::vector<wf::FileId> candidates;
  for (const wf::FileId f : staged_files_) {
    if (bb_svc->has_file(workflow_.file(f).name)) candidates.push_back(f);
  }
  std::stable_sort(candidates.begin(), candidates.end(), [this](wf::FileId a, wf::FileId b) {
    return last_access_[a] < last_access_[b];
  });
  for (const wf::FileId f : candidates) {
    if (bb_has_room(bytes)) return true;
    const std::string& name = workflow_.file(f).name;
    bb_svc->erase_file(name);
    ++evicted_files_;
    bump("storage.evictions");
    trace(TraceEventKind::Evict, nullptr, {.file = name});
  }
  return bb_has_room(bytes);
}

// --------------------------------------------------------------- resilience

bool Simulation::host_available(std::size_t host) const {
  return resil_ == nullptr || resil_->host_up[host] != 0;
}

void Simulation::sample_hosts_down() {
  if (resil_ == nullptr || !resil_->has_track || timeline_rec_ == nullptr) return;
  double down = 0.0;
  for (const char up : resil_->host_up) {
    if (up == 0) down += 1.0;
  }
  timeline_rec_->counter_sample(resil_->hosts_down_track, fabric_.engine().now(),
                                down);
}

void Simulation::setup_resil() {
  if (!config_.faults.enabled() && !config_.checkpoint.enabled()) return;
  resil_ = std::make_unique<ResilState>(config_.faults, fabric_.spec().hosts.size());
  if (timeline_rec_ != nullptr) {
    resil_->hosts_down_track =
        timeline_rec_->counter_track("resil.hosts_down", "hosts");
    resil_->has_track = true;
    sample_hosts_down();
  }
  const resil::FaultSpec& spec = config_.faults;
  const double now = fabric_.engine().now();
  if (spec.node_mtbf > 0.0) {
    for (std::size_t h = 0; h < resil_->host_up.size(); ++h) {
      schedule_node_crash(h, now + resil_->model.next_node_gap(h));
    }
  }
  if (spec.bb_mtbf > 0.0 && bb() != nullptr) {
    schedule_bb_fault(now + resil_->model.next_bb_gap());
  }
  if (spec.pfs_mtbf > 0.0) schedule_pfs_fault(now + resil_->model.next_pfs_gap());
}

void Simulation::schedule_node_crash(std::size_t host, double at) {
  const double horizon = config_.faults.horizon;
  if (horizon > 0.0 && at > horizon) return;
  fabric_.engine().schedule_at(at, [this, host] { on_node_crash(host); });
}

void Simulation::on_node_crash(std::size_t host) {
  // Once the workflow is done nothing is left to disturb; stop feeding the
  // event queue so the engine can drain.
  if (tasks_remaining_ == 0) return;
  ResilState& st = *resil_;
  st.host_up[host] = 0;
  ++st.stats.node_crashes;
  bump("resil.node_crashes");
  trace(TraceEventKind::NodeCrash, nullptr, {.host = host});
  sample_hosts_down();
  // Running attempts on the host die. Stage-in pseudo-tasks model the
  // platform's data-movement service, not node-bound work; they survive.
  // Walking by name fixes the kill order, which is the FCFS requeue order.
  for (const auto& [_, id] : workflow_.task_ids()) {
    TaskState& ts = states_[id];
    if (ts.running && ts.host == host && ts.task->type != kStageInType) {
      kill_task(ts, /*requeue=*/true);
    }
  }
  // Node-local BB replicas on the host are gone. (A shared-BB appliance
  // survives node crashes.)
  storage::StorageService* bb_svc = bb();
  if (bb_svc != nullptr && bb_svc->kind() == StorageKind::NodeLocalBB) {
    for (const std::string& f : bb_svc->file_names()) {
      const storage::StorageService::Replica* rep = bb_svc->replica(f);
      if (rep == nullptr || rep->node != static_cast<int>(host)) continue;
      bb_svc->erase_file(f);
      ++st.stats.files_invalidated;
      bump("resil.files_invalidated");
      if (const auto file = workflow_.file_ids().find(f); file != workflow_.file_ids().end()) {
        // Staged inputs and drained outputs keep a PFS master copy; only a
        // BB-only intermediate forces lineage recovery.
        if (!storage_.pfs().has_file(f)) on_file_lost(file->second);
      } else if (util::ends_with(f, kCkptSuffix)) {
        // A checkpoint image died with its node: a drain still reading it
        // can never complete, and its progress is no longer recoverable
        // from the BB (the PFS copy, if drained, still is).
        const auto owner = workflow_.task_ids().find(f.substr(0, f.rfind(kCkptSuffix)));
        TaskState* ts = owner != workflow_.task_ids().end() ? &states_[owner->second] : nullptr;
        if (ts != nullptr && ts->drain_op != nullptr) {
          ts->drain_op->cancel();
          ts->drain_op.reset();
          st.stats.checkpoint_bytes_discarded += ts->ckpt_size;
        }
      }
    }
  }
  const double now = fabric_.engine().now();
  fabric_.engine().schedule_at(now + config_.faults.node_repair,
                               [this, host] { on_node_repair(host); });
  try_schedule();
}

void Simulation::on_node_repair(std::size_t host) {
  ResilState& st = *resil_;
  if (st.host_up[host] != 0) return;
  st.host_up[host] = 1;
  ++st.stats.node_repairs;
  trace(TraceEventKind::NodeRepair, nullptr, {.host = host});
  sample_hosts_down();
  // The next crash gap is measured from the end of the repair window, so
  // down-windows of one host never overlap.
  if (tasks_remaining_ > 0 && config_.faults.node_mtbf > 0.0) {
    schedule_node_crash(host,
                        fabric_.engine().now() + st.model.next_node_gap(host));
  }
  try_schedule();
}

void Simulation::schedule_bb_fault(double at) {
  const double horizon = config_.faults.horizon;
  if (horizon > 0.0 && at > horizon) return;
  fabric_.engine().schedule_at(at, [this] { on_bb_degrade(); });
}

void Simulation::on_bb_degrade() {
  if (tasks_remaining_ == 0) return;
  const resil::FaultSpec& spec = config_.faults;
  ++resil_->stats.bb_degradations;
  bump("resil.bb_degradations");
  const std::size_t idx = bb()->storage_index();
  fabric_.scale_storage_capacity(idx, spec.bb_degrade);
  trace(TraceEventKind::BbDegraded, nullptr,
        {.scale = spec.bb_degrade, .duration = spec.bb_duration});
  const double end = fabric_.engine().now() + spec.bb_duration;
  fabric_.engine().schedule_at(end, [this, idx] {
    // Restoring with factor 1.0 rescales from the spec nominal, so the
    // capacities come back exactly (no compounding of float error).
    fabric_.scale_storage_capacity(idx, 1.0);
    trace(TraceEventKind::FaultCleared, nullptr, {.tier = Tier::BurstBuffer});
    if (tasks_remaining_ > 0) {
      schedule_bb_fault(fabric_.engine().now() + resil_->model.next_bb_gap());
    }
  });
}

void Simulation::schedule_pfs_fault(double at) {
  const double horizon = config_.faults.horizon;
  if (horizon > 0.0 && at > horizon) return;
  fabric_.engine().schedule_at(at, [this] { on_pfs_brownout(); });
}

void Simulation::on_pfs_brownout() {
  if (tasks_remaining_ == 0) return;
  const resil::FaultSpec& spec = config_.faults;
  ++resil_->stats.pfs_brownouts;
  bump("resil.pfs_brownouts");
  const std::size_t idx = storage_.pfs().storage_index();
  fabric_.scale_storage_capacity(idx, spec.pfs_brownout);
  trace(TraceEventKind::PfsBrownout, nullptr,
        {.scale = spec.pfs_brownout, .duration = spec.pfs_duration});
  const double end = fabric_.engine().now() + spec.pfs_duration;
  fabric_.engine().schedule_at(end, [this, idx] {
    fabric_.scale_storage_capacity(idx, 1.0);
    trace(TraceEventKind::FaultCleared, nullptr, {.tier = Tier::PFS});
    if (tasks_remaining_ > 0) {
      schedule_pfs_fault(fabric_.engine().now() + resil_->model.next_pfs_gap());
    }
  });
}

void Simulation::kill_task(TaskState& ts, bool requeue) {
  resil::RunStats& stats = resil_->stats;
  const double now = fabric_.engine().now();
  // Compute progress of this attempt at the moment of death; everything
  // past the last durable checkpoint is lost work.
  double progress = ts.compute_done;
  if (ts.in_segment) progress += now - ts.segment_start;
  const double lost =
      ts.cores * std::max(0.0, progress - std::min(ts.ckpt_durable, progress));
  stats.lost_core_seconds += lost;
  ++stats.tasks_killed;
  ++stats.restarts;
  bump("resil.tasks_killed");
  resil::TaskResil& tr = stats.tasks[ts.task->name];
  ++tr.kills;
  tr.lost_core_seconds += lost;
  if (ts.event_pending) {
    fabric_.engine().cancel(ts.pending_event);
    ts.event_pending = false;
  }
  ts.in_segment = false;
  for (const storage::IoHandle& op : ts.io_ops) op->cancel();
  ts.io_ops.clear();
  if (ts.ckpt_op != nullptr) {
    ts.ckpt_op->cancel();  // rolls the capacity reservation back
    ts.ckpt_op.reset();
  }
  if (ts.drain_op != nullptr) {
    ts.drain_op->cancel();
    ts.drain_op.reset();
    stats.checkpoint_bytes_discarded += ts.ckpt_size;
  }
  ts.inflight_io = 0;
  ts.reading = false;
  ts.compute_done = 0.0;
  // The record describes the final attempt only; the byte counters restart
  // with it so the post-run conservation audit still balances.
  ts.record.bytes_read = 0.0;
  ts.record.bytes_written = 0.0;
  free_cores_[ts.host] += ts.cores;
  ts.running = false;
  ++ts.attempt;
  trace(TraceEventKind::TaskKilled, &ts, {.host = ts.host, .count = ts.attempt});
  if (requeue) {
    make_ready(ts, ReadyKind::kRequeue);
  } else {
    ts.ready = false;
  }
}

void Simulation::rollback_task(TaskState& ts) {
  resil::RunStats& stats = resil_->stats;
  ts.done = false;
  ++tasks_remaining_;
  ++stats.rollbacks;
  ++stats.restarts;
  bump("resil.rollbacks");
  // The whole measured compute phase (checkpoint stalls included) will run
  // again; its first execution becomes rework.
  const double compute =
      std::max(0.0, ts.record.t_compute_done - ts.record.t_reads_done);
  stats.rework_core_seconds += ts.cores * compute;
  resil::TaskResil& tr = stats.tasks[ts.task->name];
  tr.rework_core_seconds += ts.cores * compute;
  ++ts.attempt;
  ts.ckpt_durable = 0.0;  // its checkpoints were deleted when it finished
  ts.compute_done = 0.0;
  ts.record.bytes_read = 0.0;
  ts.record.bytes_written = 0.0;
  // The completed attempt (and the dead time until this crash) becomes
  // rework on the causal chain.
  trace(TraceEventKind::Rollback, &ts, {.count = ts.attempt + 1});
  // Non-done children must wait for the re-run; done children keep their
  // results (their bytes were consumed before the crash).
  for (const wf::TaskId child : workflow_.children(ts.id)) {
    TaskState& cs = states_[child];
    if (cs.done) continue;
    ++cs.remaining_parents;
    if (cs.running) {
      kill_task(cs, /*requeue=*/false);
    } else if (cs.ready) {
      const auto pos = std::find(ready_queue_.begin(), ready_queue_.end(), &cs);
      if (pos != ready_queue_.end()) ready_queue_.erase(pos);
    }
    cs.ready = false;
  }
  // Ready again once every parent is done (a parent rolled back later will
  // re-claim this task through its own children sweep above).
  ts.remaining_parents = 0;
  for (const wf::TaskId parent : workflow_.parents(ts.id)) {
    if (!states_[parent].done) ++ts.remaining_parents;
  }
  if (ts.remaining_parents == 0) {
    make_ready(ts, ReadyKind::kRollback);
  } else {
    ts.ready = false;
  }
  // Inputs lost with the same crash must be re-produced too.
  for (const wf::FileId f : workflow_.inputs(ts.id)) ensure_file_available(f);
}

void Simulation::ensure_file_available(wf::FileId file) {
  if (!storage_.replicas_of(workflow_.file(file).name).empty()) return;
  const auto producer = workflow_.producer(file);
  if (!producer) return;  // workflow inputs keep their PFS master copy
  TaskState& ps = states_[*producer];
  // Running or queued producers will (re)write the file when they execute.
  if (ps.done) rollback_task(ps);
}

void Simulation::on_file_lost(wf::FileId file) {
  // Consumers mid-read of the dead replica must retry against a re-produced
  // copy; consumers past their read phase already hold the bytes in memory.
  const auto consumers = workflow_.consumers(file);
  for (const wf::TaskId consumer : consumers) {
    TaskState& cs = states_[consumer];
    if (cs.running && cs.reading) kill_task(cs, /*requeue=*/true);
  }
  const bool needed = std::any_of(consumers.begin(), consumers.end(),
                                  [this](wf::TaskId c) { return !states_[c].done; });
  if (!needed) return;  // every consumer already has its result
  const auto producer = workflow_.producer(file);
  if (!producer) return;
  TaskState& ps = states_[*producer];
  if (ps.done) rollback_task(ps);
}

void Simulation::cleanup_checkpoints(TaskState& ts) {
  resil::RunStats& stats = resil_->stats;
  if (ts.drain_op != nullptr) {
    ts.drain_op->cancel();
    ts.drain_op.reset();
    stats.checkpoint_bytes_discarded += ts.ckpt_size;
  }
  const std::string fname = ts.task->name + kCkptSuffix;
  storage::StorageService* bb_svc = bb();
  if (bb_svc != nullptr && bb_svc->has_file(fname)) {
    stats.checkpoint_bytes_discarded += bb_svc->replica(fname)->size;
    bb_svc->erase_file(fname);
  }
  storage::StorageService& pfs = storage_.pfs();
  if (pfs.has_file(fname)) {
    stats.checkpoint_bytes_discarded += pfs.replica(fname)->size;
    pfs.erase_file(fname);
  }
  ts.ckpt_durable = 0.0;
  ts.ckpt_size = 0.0;
}

Result Simulation::collect_result() {
  // The loops below walk tasks by name, the order of the critical-path
  // input and of the timeline's task spans.
  const auto& by_name = workflow_.task_ids();
  Result r;
  for (const auto& [name, id] : by_name) {
    r.tasks.emplace_hint(r.tasks.end(), name, states_[id].record);
    r.makespan = std::max(r.makespan, states_[id].record.t_end);
  }
  r.stage_out_duration = stage_out_duration_;
  r.makespan += stage_out_duration_;  // the drain runs after the last task
  r.stage_in_duration = std::max(0.0, stage_in_end_ - stage_in_start_);
  r.workflow_span = r.makespan - r.stage_in_duration - r.stage_out_duration;
  r.trace = std::move(trace_);
  r.demoted_writes = demoted_writes_;
  r.skipped_stage_files = skipped_stage_files_;
  r.evicted_files = evicted_files_;
  if (const storage::StorageService* bb_svc = storage_.burst_buffer()) {
    r.bb_peak_bytes = bb_svc->peak_used_bytes();
  }

  const flow::Network& net = fabric_.flows().network();
  for (std::size_t s = 0; s < fabric_.spec().storage.size(); ++s) {
    const auto& res = fabric_.storage_resources(s);
    StorageCounters c;
    c.service = fabric_.spec().storage[s].name;
    for (const flow::ResourceId id : res.disk_read) {
      c.bytes_served += net.resource(id).bytes_served;
      c.busy_time = std::max(c.busy_time, net.resource(id).busy_time);
    }
    for (const flow::ResourceId id : res.disk_write) {
      c.bytes_served += net.resource(id).bytes_served;
      c.busy_time = std::max(c.busy_time, net.resource(id).busy_time);
    }
    r.storage.push_back(std::move(c));
  }
  if (metrics_) {
    // Mirror each storage service's achieved-bandwidth time series (sampled
    // by the flow manager's bandwidth groups) into its counters entry.
    for (StorageCounters& c : r.storage) {
      const stats::TimeSeries* series =
          metrics_->find_series("storage." + c.service + ".achieved_bandwidth");
      if (series == nullptr) continue;
      c.bandwidth_series.reserve(series->samples().size());
      for (const stats::Sample& smp : series->samples()) {
        c.bandwidth_series.emplace_back(smp.time, smp.value);
      }
    }
  }
  if (config_.critpath) {
    // Before the profiler publishes (so profile.critpath.* lands in the
    // registry) and before the timeline finishes (so the critical-path
    // links make it into the Perfetto export).
    const trace::ScopedTimer critpath_timer(
        profiler_ ? profiler_->section("critpath") : nullptr);
    critpath::AnalyzeInput input;
    input.makespan = r.makespan;
    input.stage_out_duration = stage_out_duration_;
    input.tasks.reserve(states_.size());
    bool stage_task = false;
    for (const auto& [name, id] : by_name) {
      TaskState& st = states_[id];
      critpath::TaskTimes t;
      t.name = name;
      t.stage_in = st.task->type == kStageInType;
      t.t_ready = st.record.t_ready;
      t.t_start = st.record.t_start;
      t.t_reads_done = st.record.t_reads_done;
      t.t_compute_done = st.record.t_compute_done;
      t.t_end = st.record.t_end;
      for (const wf::TaskId p : workflow_.parents(id)) {
        t.parents.push_back(workflow_.task(p).name);
      }
      t.trace = std::move(*st.causal);
      stage_task = stage_task || t.stage_in;
      input.tasks.push_back(std::move(t));
    }
    // A staging window without a stage-in task is prepare()'s implicit one.
    input.implicit_stage_in = stage_in_seen_ && !stage_task;
    const critpath::Report report = critpath::analyze(input);
    r.critpath = report.to_json();
    if (auditor_) {
      const double tol = 1e-9 * std::max(1.0, r.makespan);
      BBSIM_AUDIT_CHECK(*auditor_,
                        std::abs(report.path_length() - r.makespan) <= tol,
                        audit::Code::kAttributionMismatch, audit::kPostRun,
                        "critpath",
                        util::format("critical-path length %.12g != makespan %.12g",
                                     report.path_length(), r.makespan));
      BBSIM_AUDIT_CHECK(*auditor_,
                        std::abs(report.blame_total() - r.makespan) <= tol,
                        audit::Code::kAttributionMismatch, audit::kPostRun,
                        "critpath",
                        util::format("blame classes sum %.12g != makespan %.12g",
                                     report.blame_total(), r.makespan));
    }
    if (timeline_rec_) {
      // Flow-event links between consecutive on-path tasks (synthetic
      // stage nodes have no timeline span to anchor to).
      std::string last_task;
      for (const critpath::Segment& seg : report.path) {
        if (seg.task == "implicit_stage_in" || seg.task == "stage_out") {
          continue;
        }
        if (!last_task.empty() && seg.task != last_task) {
          timeline_rec_->add_critpath_link(last_task, seg.task, seg.start);
        }
        last_task = seg.task;
      }
    }
  }
  if (profiler_) {
    if (metrics_) profiler_->publish(*metrics_);
    r.profile = profiler_->to_json();
  }
  if (timeline_rec_) {
    // finish() re-sorts the spans by (host, start) for lane assignment.
    for (const auto& [name, id] : by_name) {
      const TaskState& st = states_[id];
      trace::TaskSpan span;
      span.name = name;
      span.type = st.record.type;
      span.host = st.record.host;
      span.cores = st.record.cores;
      span.t_ready = st.record.t_ready;
      span.t_start = st.record.t_start;
      span.t_reads_done = st.record.t_reads_done;
      span.t_compute_done = st.record.t_compute_done;
      span.t_end = st.record.t_end;
      span.bytes_read = st.record.bytes_read;
      span.bytes_written = st.record.bytes_written;
      timeline_rec_->add_task(std::move(span));
    }
    r.timeline = std::make_shared<const trace::Timeline>(timeline_rec_->finish());
  }
  if (metrics_) r.metrics = metrics_->to_json();
  if (resil_) r.resil_stats = std::make_shared<resil::RunStats>(resil_->stats);
  if (auditor_) {
    storage_probe_->finalize();
    audit_result(r, workflow_, fabric_.spec(), *auditor_);
    r.audit = auditor_->to_json();
    r.audit_violations = auditor_->total();
  }
  return r;
}

Result Simulation::run() {
  if (ran_) throw InvariantError("Simulation::run() called twice");
  ran_ = true;
  prepare();
  fabric_.engine().run();

  if (tasks_remaining_ > 0) {
    for (const auto& [name, id] : workflow_.task_ids()) {
      if (!states_[id].done) {
        throw InvariantError("execution stalled: task '" + name + "' never completed (" +
                             std::to_string(tasks_remaining_) + " remaining)");
      }
    }
  }
  return collect_result();
}

}  // namespace bbsim::exec
