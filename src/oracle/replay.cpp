#include "oracle/replay.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "exec/pinning.hpp"
#include "exec/placement.hpp"
#include "oracle/maxmin_ref.hpp"
#include "util/error.hpp"

namespace bbsim::oracle {

using exec::SchedulerPolicy;
using exec::StageInMode;
using exec::Tier;
using platform::BBMode;
using platform::StorageKind;
using util::ConfigError;
using util::InvariantError;
using util::NotFoundError;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Amdahl's Law, re-derived from paper Eq. (2) rather than shared with
/// src/model: time = alpha * t_seq + (1 - alpha) * t_seq / cores.
double ref_amdahl(double t_seq, int cores, double alpha) {
  return alpha * t_seq + (1.0 - alpha) * t_seq / static_cast<double>(cores);
}

/// One in-flight data movement: a byte volume crossing a resource path.
struct RFlow {
  std::vector<std::uint32_t> path;
  double rate_cap = kInf;
  double volume = 0.0;
  long double remaining = 0.0L;
  double rate = 0.0;
  std::function<void()> done;
};

/// A planned I/O operation: fixed latency, then a metadata flow, then the
/// data sub-flows (mirrors storage::IoPlan from first principles).
struct RPlan {
  double latency = 0.0;
  double metadata_ops = 0.0;
  std::uint32_t metadata_res = 0;
  std::vector<std::pair<double, std::vector<std::uint32_t>>> data;  // volume, path
  double rate_cap = kInf;
};

/// Where a file's bytes live inside one storage service.
struct RReplica {
  double size = 0.0;
  int node = 0;  ///< storage node; -1 = striped over all nodes
  std::size_t creator_host = 0;
};

/// One storage service's naive state: spec pointer, resource ids, replicas.
struct RService {
  const platform::StorageSpec* spec = nullptr;
  std::vector<std::uint32_t> disk_read, disk_write, link_up, link_down;
  std::uint32_t metadata = 0;
  std::map<std::string, RReplica> replicas;
  long double used_bytes = 0.0L;
};

/// The replayer. One instance runs one scenario, straight through.
class RefSim {
 public:
  RefSim(platform::PlatformSpec platform, const wf::Workflow& workflow, RefConfig config)
      : spec_(std::move(platform)), workflow_(workflow), config_(std::move(config)) {
    if (!config_.placement) config_.placement = exec::all_bb_policy();
    spec_.validate_and_normalize();
    workflow_.validate();
    build_resources();
  }

  RefResult run();

 private:
  // ------------------------------------------------------- event kernel
  // A flat (time, sequence)-ordered map with FIFO ties, the same contract
  // as sim::Engine's (time, id) event heap.
  using EventKey = std::pair<double, std::uint64_t>;

  EventKey schedule_in(double dt, std::function<void()> fn) {
    const EventKey key{now_ + dt, scheduled_count_++};
    events_.emplace(key, std::move(fn));
    return key;
  }

  void cancel(const EventKey& key) { events_.erase(key); }

  void run_events() {
    while (!events_.empty()) {
      const auto it = events_.begin();
      now_ = it->first.first;
      std::function<void()> fn = std::move(it->second);
      events_.erase(it);
      fn();
    }
  }

  // --------------------------------------------------------- flow layer
  // A naive re-statement of flow::FlowManager: settle progress, recompute
  // every rate from scratch with the reference solver, scan for the next
  // completion.
  static double completion_tolerance(const RFlow& f) {
    return 1e-6 + 1e-9 * f.volume;
  }

  void start_flow(double volume, std::vector<std::uint32_t> path, double cap,
                  std::function<void()> done) {
    settle();
    RFlow f;
    f.path = std::move(path);
    f.rate_cap = cap;
    f.volume = volume;
    f.remaining = static_cast<long double>(volume);
    f.done = std::move(done);
    flows_.push_back(std::move(f));
    reschedule();
  }

  void settle() {
    const double dt = now_ - last_settle_;
    last_settle_ = now_;
    if (dt <= 0.0) return;
    for (RFlow& f : flows_) {
      if (f.rate == kInf) continue;  // zero-duration flow: no steady progress
      long double moved = static_cast<long double>(f.rate) * static_cast<long double>(dt);
      if (moved > f.remaining) moved = f.remaining;
      if (moved > 0.0L) f.remaining -= moved;
    }
  }

  void solve_rates() {
    RefProblem p;
    p.capacities = res_capacity_;
    p.flows.reserve(flows_.size());
    for (const RFlow& f : flows_) p.flows.push_back(RefFlow{f.path, f.rate_cap, 1.0});
    const std::vector<double> rates = reference_maxmin(p);
    for (std::size_t i = 0; i < flows_.size(); ++i) flows_[i].rate = rates[i];
  }

  void reschedule() {
    if (wake_scheduled_) {
      cancel(wake_key_);
      wake_scheduled_ = false;
    }
    if (flows_.empty()) return;
    solve_rates();
    double horizon = kInf;
    for (const RFlow& f : flows_) {
      const double remaining = static_cast<double>(f.remaining);
      double eta;
      if (remaining <= completion_tolerance(f) || f.rate == kInf) {
        eta = 0.0;
      } else if (f.rate <= 0.0) {
        continue;  // starved: waits for capacity to free up
      } else {
        eta = remaining / f.rate;
      }
      horizon = std::min(horizon, eta);
    }
    if (horizon == kInf) return;  // everything starved
    if (now_ + horizon == now_) horizon = 0.0;  // sub-resolution: fire now
    wake_key_ = schedule_in(horizon, [this] { on_wake(); });
    wake_scheduled_ = true;
  }

  void on_wake() {
    wake_scheduled_ = false;
    settle();
    // Collect finished flows in creation order, remove them, re-solve, then
    // run callbacks -- the same consistency contract as FlowManager.
    std::vector<std::function<void()>> callbacks;
    std::vector<RFlow> keep;
    keep.reserve(flows_.size());
    for (RFlow& f : flows_) {
      const double remaining = static_cast<double>(f.remaining);
      const bool finished = remaining <= completion_tolerance(f) || f.rate == kInf ||
                            (f.rate > 0.0 && now_ + remaining / f.rate == now_);
      if (finished) {
        callbacks.push_back(std::move(f.done));
      } else {
        keep.push_back(std::move(f));
      }
    }
    flows_ = std::move(keep);
    reschedule();
    for (std::function<void()>& cb : callbacks) {
      if (cb) cb();
    }
  }

  // ----------------------------------------------------- platform model
  std::uint32_t add_resource(double capacity) {
    res_capacity_.push_back(capacity);
    return static_cast<std::uint32_t>(res_capacity_.size() - 1);
  }

  void build_resources() {
    for (const platform::HostSpec& h : spec_.hosts) {
      nic_up_.push_back(add_resource(h.nic_bw));
      nic_down_.push_back(add_resource(h.nic_bw));
    }
    for (const platform::StorageSpec& s : spec_.storage) {
      RService svc;
      svc.spec = &s;
      for (int i = 0; i < s.num_nodes; ++i) {
        svc.disk_read.push_back(add_resource(s.disk.read_bw));
        svc.disk_write.push_back(add_resource(s.disk.write_bw));
        svc.link_up.push_back(add_resource(s.link.bandwidth));
        svc.link_down.push_back(add_resource(s.link.bandwidth));
      }
      svc.metadata = add_resource(s.metadata_ops_per_sec);
      services_.push_back(std::move(svc));
    }
  }

  // ----------------------------------------------------- storage model
  RService* pfs() {
    for (RService& s : services_) {
      if (s.spec->kind == StorageKind::PFS) return &s;
    }
    throw ConfigError("platform has no PFS service");
  }

  RService* bb() {
    for (RService& s : services_) {
      if (s.spec->kind != StorageKind::PFS) return &s;
    }
    return nullptr;
  }

  static double total_capacity(const RService& svc) {
    if (svc.spec->disk.capacity == kInf) return kInf;
    return svc.spec->disk.capacity * svc.spec->num_nodes;
  }

  static int placement_node(const RService& svc, const std::string& file_name,
                            std::size_t host_idx) {
    switch (svc.spec->kind) {
      case StorageKind::PFS:
        return static_cast<int>(std::hash<std::string>{}(file_name) %
                                static_cast<std::size_t>(svc.spec->num_nodes));
      case StorageKind::SharedBB:
        if (svc.spec->mode == BBMode::Striped) return -1;
        return static_cast<int>(host_idx % static_cast<std::size_t>(svc.spec->num_nodes));
      case StorageKind::NodeLocalBB:
        return static_cast<int>(host_idx);
    }
    return 0;
  }

  static bool readable_from(const RService& svc, const std::string& file_name,
                            std::size_t host_idx) {
    const auto it = svc.replicas.find(file_name);
    if (it == svc.replicas.end()) return false;
    switch (svc.spec->kind) {
      case StorageKind::PFS:
        return true;
      case StorageKind::SharedBB:
        return svc.spec->mode != BBMode::Private || it->second.creator_host == host_idx;
      case StorageKind::NodeLocalBB:
        return static_cast<std::size_t>(it->second.node) == host_idx;
    }
    return false;
  }

  static double metadata_ops_per_file(const RService& svc) {
    if (svc.spec->kind == StorageKind::SharedBB && svc.spec->mode == BBMode::Striped) {
      return static_cast<double>(svc.spec->num_nodes);
    }
    return 1.0;
  }

  void reserve_capacity(RService& svc, const std::string& name, double size) {
    long double delta = static_cast<long double>(size);
    const auto it = svc.replicas.find(name);
    if (it != svc.replicas.end()) delta -= static_cast<long double>(it->second.size);
    const double cap = total_capacity(svc);
    if (cap != kInf &&
        static_cast<double>(svc.used_bytes + delta) > cap * (1 + 1e-9)) {
      throw ConfigError("storage '" + svc.spec->name + "' capacity exceeded writing '" +
                        name + "'");
    }
    svc.used_bytes += delta;
  }

  void install_replica(RService& svc, const std::string& name, double size,
                       std::size_t host_idx) {
    svc.replicas[name] = RReplica{size, placement_node(svc, name, host_idx), host_idx};
  }

  void register_file(RService& svc, const std::string& name, double size,
                     std::size_t host_idx) {
    reserve_capacity(svc, name, size);
    install_replica(svc, name, size, host_idx);
  }

  void erase_file(RService& svc, const std::string& name) {
    const auto it = svc.replicas.find(name);
    if (it == svc.replicas.end()) return;
    svc.used_bytes -= static_cast<long double>(it->second.size);
    svc.replicas.erase(it);
  }

  /// Best service to read from: a readable burst-buffer replica wins over
  /// the PFS copy (mirrors StorageSystem::best_source).
  RService* best_source(const std::string& name, std::size_t host_idx) {
    RService* pfs_with_file = nullptr;
    for (RService& s : services_) {
      if (s.replicas.count(name) == 0) continue;
      if (s.spec->kind == StorageKind::PFS) {
        pfs_with_file = &s;
      } else if (readable_from(s, name, host_idx)) {
        return &s;
      }
    }
    return pfs_with_file;
  }

  std::vector<std::pair<double, std::vector<std::uint32_t>>> read_route(
      const RService& svc, const RReplica& rep, double size, std::size_t host_idx) {
    std::vector<std::pair<double, std::vector<std::uint32_t>>> out;
    switch (svc.spec->kind) {
      case StorageKind::PFS: {
        const auto n = static_cast<std::size_t>(rep.node);
        out.push_back({size, {svc.disk_read[n], svc.link_down[n], nic_down_[host_idx]}});
        break;
      }
      case StorageKind::SharedBB: {
        if (rep.node >= 0) {
          const auto n = static_cast<std::size_t>(rep.node);
          out.push_back(
              {size, {svc.disk_read[n], svc.link_down[n], nic_down_[host_idx]}});
        } else {
          const int stripes = svc.spec->num_nodes;
          for (int i = 0; i < stripes; ++i) {
            const auto n = static_cast<std::size_t>(i);
            out.push_back({size / stripes,
                           {svc.disk_read[n], svc.link_down[n], nic_down_[host_idx]}});
          }
        }
        break;
      }
      case StorageKind::NodeLocalBB: {
        const auto n = static_cast<std::size_t>(rep.node);
        out.push_back({size, {svc.disk_read[n], svc.link_down[n]}});
        break;
      }
    }
    return out;
  }

  std::vector<std::pair<double, std::vector<std::uint32_t>>> write_route(
      const RService& svc, const std::string& name, double size, std::size_t host_idx) {
    std::vector<std::pair<double, std::vector<std::uint32_t>>> out;
    const int target = placement_node(svc, name, host_idx);
    switch (svc.spec->kind) {
      case StorageKind::PFS:
      case StorageKind::SharedBB: {
        if (target >= 0) {
          const auto n = static_cast<std::size_t>(target);
          out.push_back({size, {nic_up_[host_idx], svc.link_up[n], svc.disk_write[n]}});
        } else {
          const int stripes = svc.spec->num_nodes;
          for (int i = 0; i < stripes; ++i) {
            const auto n = static_cast<std::size_t>(i);
            out.push_back({size / stripes,
                           {nic_up_[host_idx], svc.link_up[n], svc.disk_write[n]}});
          }
        }
        break;
      }
      case StorageKind::NodeLocalBB: {
        out.push_back(
            {size, {svc.link_up[host_idx], svc.disk_write[host_idx]}});
        break;
      }
    }
    return out;
  }

  RPlan plan_read(const RService& svc, const std::string& name, double size,
                  std::size_t host_idx) {
    const auto it = svc.replicas.find(name);
    if (it == svc.replicas.end()) {
      throw NotFoundError("file '" + name + "' on storage '" + svc.spec->name + "'");
    }
    if (!readable_from(svc, name, host_idx)) {
      throw InvariantError("file '" + name + "' on '" + svc.spec->name +
                           "' is not readable from host index " + std::to_string(host_idx));
    }
    RPlan plan;
    plan.latency = svc.spec->link.latency + svc.spec->base_latency;
    plan.metadata_ops = metadata_ops_per_file(svc);
    plan.metadata_res = svc.metadata;
    plan.rate_cap = svc.spec->stream_bw;
    plan.data = read_route(svc, it->second, size, host_idx);
    return plan;
  }

  RPlan plan_write(const RService& svc, const std::string& name, double size,
                   std::size_t host_idx) {
    RPlan plan;
    plan.latency = svc.spec->link.latency + svc.spec->base_latency;
    plan.metadata_ops = metadata_ops_per_file(svc);
    plan.metadata_res = svc.metadata;
    plan.rate_cap = svc.spec->stream_bw;
    plan.data = write_route(svc, name, size, host_idx);
    return plan;
  }

  /// Latency delay -> metadata flow -> concurrent data sub-flows -> done.
  void execute_plan(RPlan plan, std::function<void()> done) {
    auto shared_plan = std::make_shared<RPlan>(std::move(plan));
    auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
    auto start = [this, shared_plan, shared_done] {
      auto launch = [this, shared_plan, shared_done] {
        if (shared_plan->data.empty()) {
          if (*shared_done) (*shared_done)();
          return;
        }
        auto pending = std::make_shared<std::size_t>(shared_plan->data.size());
        for (const auto& [volume, path] : shared_plan->data) {
          start_flow(volume, path, shared_plan->rate_cap, [pending, shared_done] {
            if (--*pending == 0 && *shared_done) (*shared_done)();
          });
        }
      };
      if (shared_plan->metadata_ops > 0.0) {
        start_flow(shared_plan->metadata_ops, {shared_plan->metadata_res}, kInf, launch);
      } else {
        launch();
      }
    };
    // A zero-latency plan still defers by a zero-delay event (run-to-
    // completion semantics, like storage::execute_plan).
    schedule_in(shared_plan->latency > 0.0 ? shared_plan->latency : 0.0, start);
  }

  void svc_read(RService& svc, const std::string& name, double size,
                std::size_t host_idx, std::function<void()> done) {
    execute_plan(plan_read(svc, name, size, host_idx), std::move(done));
  }

  void svc_write(RService& svc, const std::string& name, double size,
                 std::size_t host_idx, std::function<void()> done) {
    RPlan plan = plan_write(svc, name, size, host_idx);
    reserve_capacity(svc, name, size);
    execute_plan(std::move(plan),
                 [this, &svc, name, size, host_idx, done = std::move(done)] {
                   install_replica(svc, name, size, host_idx);
                   if (done) done();
                 });
  }

  /// Fused copy between two services, throttled by the slower path
  /// (mirrors StorageSystem::transfer from first principles).
  void transfer(const std::string& name, double size, RService& from, RService& to,
                std::size_t via_host, std::function<void()> done) {
    const RPlan read = plan_read(from, name, size, via_host);
    RPlan write = plan_write(to, name, size, via_host);

    RPlan fused;
    fused.latency = read.latency + write.latency + to.spec->stage_latency;
    fused.rate_cap = std::min(read.rate_cap, write.rate_cap);
    fused.metadata_ops = read.metadata_ops + write.metadata_ops;
    fused.metadata_res = write.metadata_res;

    const auto& r = read.data;
    const auto& w = write.data;
    if (r.empty() || w.empty()) {
      throw InvariantError("transfer of '" + name + "': empty data plan");
    }
    auto concat = [](const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b) {
      std::vector<std::uint32_t> out = a;
      out.insert(out.end(), b.begin(), b.end());
      return out;
    };
    if (r.size() == 1) {
      for (const auto& [volume, path] : w) {
        fused.data.push_back({volume, concat(r[0].second, path)});
      }
    } else if (w.size() == 1) {
      for (const auto& [volume, path] : r) {
        fused.data.push_back({volume, concat(path, w[0].second)});
      }
    } else if (r.size() == w.size()) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        fused.data.push_back({w[i].first, concat(r[i].second, w[i].second)});
      }
    } else {
      throw InvariantError("transfer of '" + name + "': incompatible striping");
    }

    reserve_capacity(to, name, size);  // external-write reservation
    execute_plan(std::move(fused),
                 [this, &to, name, size, via_host, done = std::move(done)] {
                   install_replica(to, name, size, via_host);
                   if (done) done();
                 });
  }

  // ------------------------------------------------------- task replay
  struct TaskState {
    const wf::Task* task = nullptr;
    std::size_t topo_index = 0;
    double priority = 0.0;
    std::size_t remaining_parents = 0;
    int cores = 1;
    std::size_t home_host = 0;
    bool pinned = false;
    bool done = false;
    std::size_t host = 0;
    std::deque<std::string> pending_reads;
    std::deque<std::string> pending_writes;
    std::size_t inflight_io = 0;
    RefTask record;
  };

  int cores_for(const wf::Task& task) const {
    if (task.type == wf::kStageInType) return 1;  // stage-in is always sequential
    int cores = task.requested_cores;
    if (config_.force_cores > 0) cores = config_.force_cores;
    return std::max(1, cores);
  }

  double file_size(const std::string& name) const { return workflow_.file(name).size; }

  // The workflow answers structural queries by id (tasks() / files()
  // positions); the referee keeps its own name-keyed state.
  template <typename Item>
  static std::vector<std::string> names(std::span<const Item> items,
                                        std::span<const std::uint32_t> ids) {
    std::vector<std::string> out;
    for (const std::uint32_t id : ids) out.push_back(items[id].name);
    return out;
  }
  std::vector<std::string> children_of(const std::string& task) const {
    return names(workflow_.tasks(), workflow_.children(workflow_.task_id(task)));
  }
  std::vector<std::string> consumers_of(const std::string& file) const {
    return names(workflow_.tasks(), workflow_.consumers(workflow_.file_id(file)));
  }
  std::vector<std::string> files_to_stage() const {
    return names(workflow_.files(), config_.placement->files_to_stage(workflow_));
  }
  Tier place_output(const wf::Task& task, const std::string& file) const {
    return config_.placement->place_output(workflow_, workflow_.task_id(task.name),
                                           workflow_.file_id(file));
  }

  bool bb_has_room(double bytes) {
    const RService* bb_svc = bb();
    if (bb_svc == nullptr) return false;
    const double cap = total_capacity(*bb_svc);
    return cap == kInf || static_cast<double>(bb_svc->used_bytes) + bytes <= cap;
  }

  bool bb_restricted() {
    const RService* bb_svc = bb();
    return bb_svc != nullptr &&
           (bb_svc->spec->kind == StorageKind::NodeLocalBB ||
            (bb_svc->spec->kind == StorageKind::SharedBB &&
             bb_svc->spec->mode == BBMode::Private));
  }

  void compute_priorities() {
    switch (config_.scheduler) {
      case SchedulerPolicy::Fcfs:
        for (auto& [_, st] : states_) st.priority = 0.0;
        return;
      case SchedulerPolicy::LargestFirst:
        for (auto& [_, st] : states_) st.priority = st.task->flops;
        return;
      case SchedulerPolicy::SmallestFirst:
        for (auto& [_, st] : states_) st.priority = -st.task->flops;
        return;
      case SchedulerPolicy::CriticalPathFirst: {
        for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
          TaskState& st = states_.at(*it);
          double best_child = 0.0;
          for (const std::string& child : children_of(*it)) {
            best_child = std::max(best_child, states_.at(child).priority);
          }
          st.priority = st.task->flops + best_child;
        }
        return;
      }
    }
  }

  void enqueue_ready(const std::string& task_name) {
    if (config_.scheduler == SchedulerPolicy::Fcfs) {
      ready_queue_.push_back(task_name);
      return;
    }
    const TaskState& st = states_.at(task_name);
    auto pos = ready_queue_.begin();
    for (; pos != ready_queue_.end(); ++pos) {
      const TaskState& other = states_.at(*pos);
      if (st.priority > other.priority ||
          (st.priority == other.priority && st.topo_index < other.topo_index)) {
        break;
      }
    }
    ready_queue_.insert(pos, task_name);
  }

  void prepare(bool implicit_stage_done) {
    free_cores_.clear();
    for (const platform::HostSpec& h : spec_.hosts) free_cores_.push_back(h.cores);
    int max_cores = 0;
    for (const platform::HostSpec& h : spec_.hosts) max_cores = std::max(max_cores, h.cores);

    topo_order_ = names(workflow_.tasks(), workflow_.topological_order());
    std::map<std::string, std::size_t> topo_index;
    for (std::size_t i = 0; i < topo_order_.size(); ++i) topo_index[topo_order_[i]] = i;

    const bool pin = bb_restricted();
    std::vector<std::size_t> homes;
    if (pin) homes = exec::compute_home_hosts(workflow_, spec_);

    const auto tasks = workflow_.tasks();
    for (wf::TaskId i = 0; i < tasks.size(); ++i) {
      const wf::Task& t = tasks[i];
      TaskState st;
      st.task = &t;
      st.topo_index = topo_index.at(t.name);
      st.remaining_parents = workflow_.parents(i).size();
      st.cores = cores_for(t);
      if (st.cores > max_cores) {
        throw ConfigError("task '" + t.name + "' wants " + std::to_string(st.cores) +
                          " cores but the largest host has " + std::to_string(max_cores));
      }
      st.home_host = pin ? homes[i] : 0;
      st.pinned = pin;
      st.record.cores = st.cores;
      states_.emplace(t.name, std::move(st));
    }
    tasks_remaining_ = tasks.size();

    // Inputs and staging plan. An implicit stage-in phase registered the
    // inputs already, and its plan stays (eviction may reclaim it).
    RService* bb_svc = bb();
    if (!implicit_stage_done) {
      RService& pfs_svc = *pfs();
      for (const std::string& f : names(workflow_.files(), workflow_.input_files())) {
        register_file(pfs_svc, f, file_size(f), 0);
      }
      if (bb_svc != nullptr) staged_files_ = files_to_stage();
      for (const std::string& f : staged_files_) {
        std::size_t host = 0;
        const auto consumers = consumers_of(f);
        if (!consumers.empty()) host = states_.at(consumers.front()).home_host;
        staged_file_host_[f] = host;
      }
    }
    if (config_.stage_in_mode == StageInMode::Instant && bb_svc != nullptr) {
      for (const std::string& f : staged_files_) {
        const double size = file_size(f);
        if (!bb_has_room(size) && !(config_.bb_eviction && try_evict(size))) {
          ++skipped_stage_files_;
          continue;
        }
        register_file(*bb_svc, f, size, staged_file_host_[f]);
      }
    }
    build_stage_partition();

    compute_priorities();

    for (const std::string& name : topo_order_) {
      TaskState& st = states_.at(name);
      if (st.remaining_parents == 0) {
        st.record.t_ready = now_;
        enqueue_ready(name);
      }
    }
    try_schedule();
  }

  void build_stage_partition() {
    staged_by_task_.clear();
    std::vector<std::string> stage_tasks;
    for (const wf::Task& t : workflow_.tasks()) {
      if (t.type == wf::kStageInType) stage_tasks.push_back(t.name);
    }
    if (stage_tasks.empty()) return;
    if (stage_tasks.size() == 1) {
      staged_by_task_[stage_tasks.front()] = staged_files_;
      return;
    }
    std::set<std::string> assigned;
    for (const std::string& stage : stage_tasks) {
      std::set<std::string> seen{stage};
      std::deque<std::string> frontier{stage};
      std::set<std::string> wanted;
      while (!frontier.empty()) {
        const std::string task = frontier.front();
        frontier.pop_front();
        for (const std::string& child : children_of(task)) {
          if (seen.insert(child).second) frontier.push_back(child);
        }
        for (const std::string& f : workflow_.task(task).inputs) wanted.insert(f);
      }
      std::vector<std::string>& mine = staged_by_task_[stage];
      for (const std::string& f : staged_files_) {
        if (wanted.count(f) > 0 && assigned.insert(f).second) mine.push_back(f);
      }
    }
    for (const std::string& f : staged_files_) {
      if (assigned.insert(f).second) staged_by_task_[stage_tasks.front()].push_back(f);
    }
  }

  void try_schedule() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = ready_queue_.begin(); it != ready_queue_.end(); ++it) {
        TaskState& st = states_.at(*it);
        auto chosen = static_cast<std::size_t>(-1);
        if (st.pinned) {
          if (spec_.hosts[st.home_host].cores >= st.cores) {
            if (free_cores_[st.home_host] >= st.cores) chosen = st.home_host;
          } else {
            for (std::size_t h = 0; h < free_cores_.size(); ++h) {
              if (free_cores_[h] >= st.cores) {
                chosen = h;
                break;
              }
            }
          }
        } else {
          int best_free = -1;
          for (std::size_t h = 0; h < free_cores_.size(); ++h) {
            if (free_cores_[h] >= st.cores && free_cores_[h] > best_free) {
              best_free = free_cores_[h];
              chosen = h;
            }
          }
        }
        if (chosen == static_cast<std::size_t>(-1)) continue;
        const std::string name = *it;
        ready_queue_.erase(it);
        start_task(states_.at(name), chosen);
        progressed = true;
        break;  // iterators invalidated; rescan
      }
    }
  }

  void start_task(TaskState& ts, std::size_t host) {
    ts.host = host;
    ts.record.host = host;
    free_cores_[host] -= ts.cores;
    ts.record.t_start = now_;

    if (ts.task->type == wf::kStageInType) {
      run_stage_in(ts);
      return;
    }
    for (const std::string& f : ts.task->inputs) ts.pending_reads.push_back(f);
    issue_reads(ts);
  }

  // ---------------------------------------------------------- stage-in
  struct StageChain {
    TaskState* ts = nullptr;  ///< nullptr for the implicit pre-phase
    const std::vector<std::string>* files = nullptr;
    std::size_t next = 0;
    std::size_t inflight = 0;
  };

  void run_stage_in(TaskState& ts) {
    if (!stage_in_seen_ || now_ < stage_in_start_) stage_in_start_ = now_;
    stage_in_seen_ = true;
    const auto it = staged_by_task_.find(ts.task->name);
    const std::vector<std::string>* files =
        it != staged_by_task_.end() ? &it->second : nullptr;
    if (config_.stage_in_mode == StageInMode::Instant || files == nullptr ||
        files->empty() || bb() == nullptr) {
      schedule_in(0.0, [this, &ts] {
        ts.record.t_reads_done = now_;
        ts.record.t_compute_done = now_;
        stage_in_end_ = std::max(stage_in_end_, now_);
        finish_task(ts);
      });
      return;
    }
    auto chain = std::make_shared<StageChain>();
    chain->ts = &ts;
    chain->files = files;
    pump_stage_chain(chain);
  }

  void pump_stage_chain(const std::shared_ptr<StageChain>& chain) {
    const auto width = static_cast<std::size_t>(std::max(1, config_.stage_in_width));
    while (chain->next < chain->files->size() && chain->inflight < width) {
      const std::string& fname = (*chain->files)[chain->next++];
      const double size = file_size(fname);
      if (!bb_has_room(size) && !(config_.bb_eviction && try_evict(size))) {
        ++skipped_stage_files_;
        continue;
      }
      const std::size_t via_host = staged_file_host_.at(fname);
      if (chain->ts != nullptr) {
        chain->ts->record.bytes_read += size;
        chain->ts->record.bytes_written += size;
      }
      ++chain->inflight;
      transfer(fname, size, *pfs(), *bb(), via_host, [this, chain] {
        --chain->inflight;
        pump_stage_chain(chain);
      });
    }
    if (chain->next >= chain->files->size() && chain->inflight == 0) {
      stage_in_end_ = std::max(stage_in_end_, now_);
      if (chain->ts != nullptr) {
        chain->ts->record.t_reads_done = now_;
        chain->ts->record.t_compute_done = now_;
        finish_task(*chain->ts);
      }
    }
  }

  // ------------------------------------------------------------- reads
  void issue_reads(TaskState& ts) {
    const auto window = static_cast<std::size_t>(ts.cores);
    while (!ts.pending_reads.empty() && ts.inflight_io < window) {
      const std::string fname = ts.pending_reads.front();
      ts.pending_reads.pop_front();
      RService* src = best_source(fname, ts.host);
      if (src == nullptr) {
        throw InvariantError("task '" + ts.task->name + "' cannot read file '" + fname +
                             "' from host " + std::to_string(ts.host) +
                             " (no readable replica)");
      }
      last_access_[fname] = now_;
      const double size = file_size(fname);
      ts.record.bytes_read += size;
      ++ts.inflight_io;
      svc_read(*src, fname, size, ts.host, [this, &ts] {
        --ts.inflight_io;
        if (ts.pending_reads.empty() && ts.inflight_io == 0) {
          on_reads_done(ts);
        } else {
          issue_reads(ts);
        }
      });
    }
    if (ts.pending_reads.empty() && ts.inflight_io == 0 && ts.task->inputs.empty()) {
      on_reads_done(ts);
    }
  }

  void on_reads_done(TaskState& ts) {
    ts.record.t_reads_done = now_;
    double duration = 0.0;
    if (ts.task->flops > 0.0) {
      const double core_speed = spec_.hosts[ts.host].core_speed;
      duration = ref_amdahl(ts.task->flops / core_speed, ts.cores, ts.task->alpha);
    }
    schedule_in(duration, [this, &ts] { on_compute_done(ts); });
  }

  void on_compute_done(TaskState& ts) {
    ts.record.t_compute_done = now_;
    for (const std::string& f : ts.task->outputs) ts.pending_writes.push_back(f);
    if (ts.pending_writes.empty()) {
      finish_task(ts);
      return;
    }
    issue_writes(ts);
  }

  // ------------------------------------------------------------ writes
  Tier output_tier(const TaskState& ts, const std::string& file_name) {
    const Tier tier = place_output(*ts.task, file_name);
    if (tier != Tier::BurstBuffer) return tier;
    if (bb() == nullptr) return Tier::PFS;
    if (bb_restricted()) {
      for (const std::string& consumer : consumers_of(file_name)) {
        const TaskState& cs = states_.at(consumer);
        const std::size_t consumer_host = cs.pinned ? cs.home_host : ts.host;
        if (consumer_host != ts.host) return Tier::PFS;
      }
    }
    return Tier::BurstBuffer;
  }

  void issue_writes(TaskState& ts) {
    const auto window = static_cast<std::size_t>(ts.cores);
    while (!ts.pending_writes.empty() && ts.inflight_io < window) {
      const std::string fname = ts.pending_writes.front();
      ts.pending_writes.pop_front();
      const Tier requested = place_output(*ts.task, fname);
      Tier tier = output_tier(ts, fname);
      const double size = file_size(fname);
      if (tier == Tier::BurstBuffer) {
        if (!bb_has_room(size) && !(config_.bb_eviction && try_evict(size))) {
          tier = Tier::PFS;
        }
      }
      if (requested == Tier::BurstBuffer && tier == Tier::PFS) ++demoted_writes_;
      RService& dst = tier == Tier::BurstBuffer ? *bb() : *pfs();
      ts.record.bytes_written += size;
      ++ts.inflight_io;
      svc_write(dst, fname, size, ts.host, [this, &ts] {
        --ts.inflight_io;
        if (ts.pending_writes.empty() && ts.inflight_io == 0) {
          finish_task(ts);
        } else {
          issue_writes(ts);
        }
      });
    }
  }

  // ---------------------------------------------------------- finish
  void finish_task(TaskState& ts) {
    ts.record.t_end = now_;
    ts.done = true;
    free_cores_[ts.host] += ts.cores;
    --tasks_remaining_;

    for (const std::string& child : children_of(ts.task->name)) {
      TaskState& cs = states_.at(child);
      if (--cs.remaining_parents == 0) {
        cs.record.t_ready = now_;
        enqueue_ready(child);
      }
    }
    if (tasks_remaining_ == 0 && config_.stage_out) {
      run_stage_out();
      return;
    }
    try_schedule();
  }

  void run_stage_out() {
    RService* bb_svc = bb();
    if (bb_svc == nullptr) return;
    auto files = std::make_shared<std::vector<std::string>>();
    for (const std::string& f : names(workflow_.files(), workflow_.output_files())) {
      if (bb_svc->replicas.count(f) > 0 && pfs()->replicas.count(f) == 0) {
        files->push_back(f);
      }
    }
    if (files->empty()) return;
    const double start = now_;
    auto drain = std::make_shared<std::function<void(std::size_t)>>();
    *drain = [this, files, start, drain, bb_svc](std::size_t index) {
      if (index >= files->size()) {
        stage_out_duration_ = now_ - start;
        return;
      }
      const std::string& fname = (*files)[index];
      const auto rep = bb_svc->replicas.find(fname);
      const std::size_t via_host =
          rep != bb_svc->replicas.end() ? rep->second.creator_host : 0;
      transfer(fname, file_size(fname), *bb_svc, *pfs(), via_host,
               [drain, index] { (*drain)(index + 1); });
    };
    (*drain)(0);
  }

  bool try_evict(double bytes) {
    RService* bb_svc = bb();
    if (bb_svc == nullptr) return false;
    struct Candidate {
      std::string file;
      double last_access;
    };
    std::vector<Candidate> candidates;
    for (const std::string& f : staged_files_) {
      if (bb_svc->replicas.count(f) == 0) continue;
      const auto it = last_access_.find(f);
      candidates.push_back({f, it == last_access_.end() ? 0.0 : it->second});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.last_access < b.last_access;
                     });
    for (const Candidate& c : candidates) {
      if (bb_has_room(bytes)) return true;
      erase_file(*bb_svc, c.file);
      ++evicted_files_;
    }
    return bb_has_room(bytes);
  }

  // ------------------------------------------------------------ members
  platform::PlatformSpec spec_;
  wf::Workflow workflow_;
  RefConfig config_;

  double now_ = 0.0;
  std::uint64_t scheduled_count_ = 0;
  std::map<EventKey, std::function<void()>> events_;

  std::vector<double> res_capacity_;
  std::vector<RFlow> flows_;
  bool wake_scheduled_ = false;
  EventKey wake_key_{};
  double last_settle_ = 0.0;

  std::vector<std::uint32_t> nic_up_, nic_down_;
  std::vector<RService> services_;

  std::map<std::string, TaskState> states_;
  std::vector<std::string> topo_order_;
  std::vector<int> free_cores_;
  std::deque<std::string> ready_queue_;
  std::vector<std::string> staged_files_;
  std::map<std::string, std::vector<std::string>> staged_by_task_;
  std::map<std::string, std::size_t> staged_file_host_;
  std::size_t tasks_remaining_ = 0;
  std::size_t demoted_writes_ = 0;
  std::size_t skipped_stage_files_ = 0;
  std::size_t evicted_files_ = 0;
  double stage_in_start_ = 0.0;
  double stage_in_end_ = 0.0;
  bool stage_in_seen_ = false;
  double stage_out_duration_ = 0.0;
  std::map<std::string, double> last_access_;
};

RefResult RefSim::run() {
  // Implicit stage-in: Task mode on a workflow without a stage-in task
  // stages everything up front, before entry tasks become ready.
  bool has_stage_task = false;
  for (const wf::Task& t : workflow_.tasks()) {
    if (t.type == wf::kStageInType) {
      has_stage_task = true;
      break;
    }
  }

  bool implicit_done = false;
  if (config_.stage_in_mode == StageInMode::Task && !has_stage_task && bb() != nullptr &&
      !files_to_stage().empty()) {
    staged_files_ = files_to_stage();
    RService& pfs_svc = *pfs();
    for (const std::string& f : names(workflow_.files(), workflow_.input_files())) {
      register_file(pfs_svc, f, file_size(f), 0);
    }
    // Home hosts for staged-file placement (the engine computes these
    // unconditionally on this path).
    std::map<std::string, std::size_t> home_by_task;
    {
      const auto homes = exec::compute_home_hosts(workflow_, spec_);
      for (wf::TaskId i = 0; i < homes.size(); ++i) {
        home_by_task[workflow_.task(i).name] = homes[i];
      }
    }
    for (const std::string& f : staged_files_) {
      std::size_t host = 0;
      const auto consumers = consumers_of(f);
      if (!consumers.empty()) host = home_by_task.at(consumers.front());
      staged_file_host_[f] = host;
    }
    stage_in_start_ = 0.0;
    stage_in_seen_ = true;
    auto chain = std::make_shared<StageChain>();
    chain->files = &staged_files_;
    pump_stage_chain(chain);
    run_events();
    implicit_done = true;
  }

  prepare(implicit_done);
  run_events();

  if (tasks_remaining_ > 0) {
    for (const auto& [name, st] : states_) {
      if (!st.done) {
        throw InvariantError("reference execution stalled: task '" + name +
                             "' never completed");
      }
    }
  }

  RefResult r;
  for (const auto& [name, st] : states_) {
    r.tasks.emplace(name, st.record);
    r.makespan = std::max(r.makespan, st.record.t_end);
  }
  r.stage_out_duration = stage_out_duration_;
  r.makespan += stage_out_duration_;
  r.stage_in_duration = std::max(0.0, stage_in_end_ - stage_in_start_);
  r.workflow_span = r.makespan - r.stage_in_duration - r.stage_out_duration;
  r.demoted_writes = demoted_writes_;
  r.skipped_stage_files = skipped_stage_files_;
  r.evicted_files = evicted_files_;
  return r;
}

}  // namespace

RefResult reference_execute(const platform::PlatformSpec& platform,
                            const wf::Workflow& workflow, const RefConfig& config) {
  RefSim sim(platform, workflow, config);
  return sim.run();
}

}  // namespace bbsim::oracle
