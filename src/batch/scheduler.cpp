#include "batch/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "batch/profile.hpp"
#include "util/error.hpp"

namespace bbsim::batch {

using util::ConfigError;

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::Fcfs: return "fcfs";
    case Policy::Easy: return "easy";
    case Policy::Conservative: return "conservative";
    case Policy::PlanBased: return "plan";
  }
  return "fcfs";
}

Policy policy_from_string(const std::string& text) {
  if (text == "fcfs") return Policy::Fcfs;
  if (text == "easy") return Policy::Easy;
  if (text == "conservative") return Policy::Conservative;
  if (text == "plan" || text == "plan_based") return Policy::PlanBased;
  throw ConfigError("unknown policy '" + text + "' (expected fcfs|easy|conservative|plan)");
}

double MachineSpec::bb_alloc(double bytes) const {
  if (bytes <= 0) return 0.0;
  if (bb_granule <= 0) return bytes;
  return std::ceil(bytes / bb_granule - kEps) * bb_granule;
}

double JobOutcome::bounded_slowdown(double tau) const {
  const double denom = std::max(runtime, tau);
  if (denom <= 0) return 1.0;
  return std::max(1.0, (wait() + runtime) / denom);
}

double FleetResult::node_utilization(const MachineSpec& machine) const {
  if (makespan <= 0 || machine.nodes < 1) return 0.0;
  return node_seconds / (static_cast<double>(machine.nodes) * makespan);
}

double FleetResult::bb_utilization(const MachineSpec& machine) const {
  if (makespan <= 0 || machine.bb_bytes <= 0) return 0.0;
  return bb_byte_seconds / (machine.bb_bytes * makespan);
}

double FleetResult::bb_internal_fragmentation() const {
  if (bb_byte_seconds <= 0) return 0.0;
  return (bb_byte_seconds - bb_req_byte_seconds) / bb_byte_seconds;
}

double FleetResult::bb_blocked_fraction() const {
  if (makespan <= 0) return 0.0;
  return bb_blocked_seconds / makespan;
}

namespace {

/// The fleet simulation: one policy, one stream, one machine.
class FleetSim {
 public:
  FleetSim(const MachineSpec& machine, const JobStream& stream,
           const SchedulerConfig& config)
      : machine_(machine), stream_(stream), config_(config) {}

  FleetResult run();

 private:
  // ------------------------------------------------------------ helpers
  const Job& job(std::size_t idx) const { return stream_.jobs[idx]; }
  double alloc(std::size_t idx) const { return alloc_[idx]; }
  double exec_runtime(std::size_t idx) const { return exec_runtime_[idx]; }
  double end_estimate(std::size_t idx) const {
    return outcomes_[idx].start + job(idx).walltime_estimate;
  }
  /// Fit tolerance for BB byte quantities. Pools reach 1e12+ bytes, where
  /// one double ulp is ~1e-4: an absolute 1e-9 epsilon would make a job
  /// whose reservation equals the whole free pool "never fit" on rounding
  /// noise alone (a deadlock, since the machine can free no more).
  double bb_eps() const { return std::max(kEps, machine_.bb_bytes * 1e-12); }
  bool fits_now(std::size_t idx) const {
    return job(idx).nodes <= free_nodes_ && alloc(idx) <= free_bb_ + bb_eps();
  }

  void start_job(std::size_t idx, bool backfilled);
  void promise(std::size_t idx, double start) {
    if (outcomes_[idx].reserved_start < 0) outcomes_[idx].reserved_start = start;
  }

  // ------------------------------------------------- per-policy passes
  void schedule_pass();
  void pass_fcfs();
  void pass_easy();
  void pass_conservative();
  void pass_plan();
  /// Build the availability profile of the running jobs (estimates).
  Profile running_profile() const;
  /// Place `order` onto a copy of the running profile; returns the total
  /// estimated bounded slowdown, filling `starts` (parallel to `order`).
  /// Stops once the total reaches `bound - kEps`: the ordering cannot beat
  /// `bound` any more, and the partial total it returns says so.
  double plan_cost(const std::vector<std::size_t>& order, double bound,
                   std::vector<double>* starts);

  // ----------------------------------------------------- observability
  void integrate_to(double t);
  void sample();
  void audit_ledger();
  void audit_outcome(const JobOutcome& out);

  const MachineSpec& machine_;
  const JobStream& stream_;
  const SchedulerConfig& config_;

  FleetResult result_;
  std::vector<JobOutcome> outcomes_;   ///< by stream index
  std::vector<double> alloc_;          ///< granule-rounded BB per job
  std::vector<double> exec_runtime_;   ///< min(actual, estimate)
  std::deque<std::size_t> queue_;      ///< waiting, arrival order
  /// pass_conservative's suffix minima over the queue of node counts and
  /// allocations; members so that a pass allocates nothing once grown.
  std::vector<int> min_nodes_;
  std::vector<double> min_alloc_;
  std::vector<std::size_t> running_;   ///< running stream indices
  double now_ = 0.0;
  int free_nodes_ = 0;
  double free_bb_ = 0.0;
  std::size_t next_arrival_ = 0;

  // ------------------------------------------------------- node outages
  /// One active outage: `node` is out until `repair_end`. Sorted insertion
  /// is not needed -- the vector stays tiny (bounded by machine nodes).
  struct Outage {
    std::size_t node = 0;
    double repair_end = 0.0;
  };
  int down_nodes() const { return static_cast<int>(down_.size()); }
  /// Next crash time for `node` measured from `from`; kInf past the horizon.
  double sample_crash(std::size_t node, double from);
  /// Process repairs then crashes due at now_ (kill-and-resubmit).
  void apply_outages();
  std::unique_ptr<resil::FaultModel> fault_model_;  ///< null = faults off
  std::vector<double> next_crash_;  ///< per node; kInf while down / past horizon
  std::vector<Outage> down_;        ///< active outages

  std::unique_ptr<stats::MetricsRegistry> metrics_;
  std::unique_ptr<trace::TimelineRecorder> timeline_;
  trace::TrackId track_free_nodes_ = 0;
  trace::TrackId track_bb_used_ = 0;
  trace::TrackId track_down_nodes_ = 0;
  std::unique_ptr<audit::Auditor> auditor_;
};

void FleetSim::start_job(std::size_t idx, bool backfilled) {
  JobOutcome& out = outcomes_[idx];
  out.start = now_;
  out.runtime = exec_runtime(idx);
  out.end = now_ + out.runtime;
  out.killed = job(idx).walltime_actual > job(idx).walltime_estimate + kEps;
  out.backfilled = backfilled;
  free_nodes_ -= job(idx).nodes;
  free_bb_ -= alloc(idx);
  running_.push_back(idx);
  if (backfilled) ++result_.backfilled_jobs;
  if (out.killed) ++result_.killed_jobs;
  if (metrics_) {
    metrics_->counter("batch.jobs_started").add();
    if (backfilled) metrics_->counter("batch.jobs_backfilled").add();
    if (out.killed) metrics_->counter("batch.jobs_killed").add();
    // BB-allocation wait absorbed before this start: the seconds the job
    // spent as a node-feasible queue head blocked by the BB pool alone.
    metrics_->series("storage.bb.alloc_wait_seconds")
        .sample(now_, out.bb_wait_seconds);
  }
}

double FleetSim::sample_crash(std::size_t node, double from) {
  const double at = from + fault_model_->next_node_gap(node);
  const resil::FaultSpec& spec = fault_model_->spec();
  if (spec.horizon > 0.0 && at > spec.horizon) return kInf;
  return at;
}

void FleetSim::apply_outages() {
  if (!fault_model_) return;
  // Repairs first: a node repaired at the same instant another crashes is
  // available to absorb the loss. Repairs sweep in outage order, crashes in
  // node-index order -- both fixed, so the run is deterministic.
  for (std::size_t i = 0; i < down_.size();) {
    if (down_[i].repair_end <= now_ + kEps) {
      const std::size_t node = down_[i].node;
      down_.erase(down_.begin() + static_cast<std::ptrdiff_t>(i));
      ++free_nodes_;
      next_crash_[node] = sample_crash(node, now_);
    } else {
      ++i;
    }
  }
  for (std::size_t node = 0; node < next_crash_.size(); ++node) {
    if (next_crash_[node] > now_ + kEps) continue;
    next_crash_[node] = kInf;  // re-armed when the repair fires
    down_.push_back({node, now_ + config_.faults.node_repair});
    ++result_.node_outages;
    if (metrics_) metrics_->counter("batch.node_outages").add();
    if (free_nodes_ > 0) {
      --free_nodes_;  // the crash landed on an idle node
      continue;
    }
    // Every node is busy: the crash lands on a running job. Kill the most
    // recently started one (least sunk work; ties break to the highest id)
    // and resubmit it at the queue tail -- the batch-system response to
    // node loss when the application cannot survive it.
    std::size_t victim = running_.front();
    for (const std::size_t r : running_) {
      const double rs = outcomes_[r].start;
      const double vs = outcomes_[victim].start;
      if (rs > vs + kEps || (std::abs(rs - vs) <= kEps && job(r).id > job(victim).id)) {
        victim = r;
      }
    }
    running_.erase(std::find(running_.begin(), running_.end(), victim));
    const double lost = (now_ - outcomes_[victim].start) * job(victim).nodes;
    outcomes_[victim].resubmits += 1;
    outcomes_[victim].lost_node_seconds += lost;
    result_.lost_node_seconds += lost;
    ++result_.resubmitted_jobs;
    free_nodes_ += job(victim).nodes - 1;  // its nodes free up; one is now down
    // Resync the BB pool from the ledger (same drift defense as completions).
    double reserved = 0.0;
    for (const std::size_t r : running_) reserved += alloc(r);
    free_bb_ = machine_.bb_bytes - reserved;
    queue_.push_back(victim);
    if (metrics_) metrics_->counter("batch.jobs_resubmitted").add();
  }
}

void FleetSim::pass_fcfs() {
  while (!queue_.empty() && fits_now(queue_.front())) {
    start_job(queue_.front(), false);
    queue_.pop_front();
  }
}

void FleetSim::pass_easy() {
  bool progress = true;
  while (progress) {
    progress = false;
    while (!queue_.empty() && fits_now(queue_.front())) {
      start_job(queue_.front(), false);
      queue_.pop_front();
      progress = true;
    }
    if (queue_.empty()) return;

    // Head blocked: find the shadow time -- the earliest instant the
    // running jobs' *estimated* completions (and, under faults, down-node
    // repairs, which release a node exactly like a completion) free both of
    // its dimensions.
    const std::size_t head = queue_.front();
    struct Release {
      double end = 0.0;
      int nodes = 0;
      double bb = 0.0;
      bool phantom = false;  ///< a repair, not a job completion
      std::size_t id = 0;    ///< job id, or node index for phantoms
    };
    std::vector<Release> releases;
    releases.reserve(running_.size() + down_.size());
    for (const std::size_t r : running_) {
      releases.push_back({end_estimate(r), job(r).nodes, alloc(r), false, job(r).id});
    }
    for (const Outage& o : down_) {
      releases.push_back({o.repair_end, 1, 0.0, true, o.node});
    }
    std::sort(releases.begin(), releases.end(), [](const Release& a, const Release& b) {
      // Exact compare: a strict-weak-order tie-break, not a tolerance test.
      if (a.end != b.end) return a.end < b.end;  // NOLINT(bbsim-float-equality)
      if (a.phantom != b.phantom) return !a.phantom;
      return a.id < b.id;
    });
    double shadow = kInf;
    int nodes_at_shadow = free_nodes_;
    double bb_at_shadow = free_bb_;
    {
      int na = free_nodes_;
      double ba = free_bb_;
      for (std::size_t k = 0; k < releases.size(); ++k) {
        na += releases[k].nodes;
        ba += releases[k].bb;
        if (na >= job(head).nodes && ba >= alloc(head) - bb_eps()) {
          shadow = releases[k].end;
          // Fold in later completions at the same instant: they free more
          // resources at the shadow without moving it.
          for (std::size_t m = k + 1;
               m < releases.size() && releases[m].end <= shadow + kEps; ++m) {
            na += releases[m].nodes;
            ba += releases[m].bb;
          }
          nodes_at_shadow = na;
          bb_at_shadow = ba;
          break;
        }
      }
    }
    promise(head, shadow);

    // Resources a backfill may take without touching the head's claim:
    // min(free now, free at the shadow after the head is placed).
    const int spare_nodes =
        std::min(free_nodes_, nodes_at_shadow - job(head).nodes);
    const double spare_bb = std::min(free_bb_, bb_at_shadow - alloc(head));

    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      const std::size_t cand = *it;
      if (!fits_now(cand)) continue;
      const bool ends_before_shadow = now_ + job(cand).walltime_estimate <= shadow + kEps;
      const bool inside_spare =
          job(cand).nodes <= spare_nodes && alloc(cand) <= spare_bb + bb_eps();
      if (ends_before_shadow || inside_spare) {
        start_job(cand, true);
        queue_.erase(it);
        progress = true;
        break;  // resources changed: recompute the shadow
      }
    }
  }
}

Profile FleetSim::running_profile() const {
  Profile prof(now_, machine_.nodes, machine_.bb_bytes);
  for (const std::size_t r : running_) {
    // Reserve until the *estimated* end: the sound bound under
    // kill-at-estimate (the job cannot run longer).
    prof.commit(now_, end_estimate(r) - now_, job(r).nodes, alloc(r));
  }
  for (const Outage& o : down_) {
    // A down node is a one-node phantom job that "completes" at its repair.
    prof.commit(now_, o.repair_end - now_, 1, 0.0);
  }
  return prof;
}

double FleetSim::plan_cost(const std::vector<std::size_t>& order, double bound,
                           std::vector<double>* starts) {
  Profile prof = running_profile();
  double total = 0.0;
  starts->clear();
  starts->reserve(order.size());
  for (const std::size_t idx : order) {
    const double est = job(idx).walltime_estimate;
    const double s = prof.earliest_start(now_, est, job(idx).nodes, alloc(idx));
    prof.commit(s, est, job(idx).nodes, alloc(idx));
    starts->push_back(s);
    const double denom = std::max(est, config_.tau);
    total += std::max(1.0, (s - job(idx).submit + est) / denom);
    // Every term is at least 1, and a floating-point sum of positive terms
    // never decreases: the full total would be no smaller.
    if (total >= bound - kEps) break;
  }
  result_.profile_segments_scanned += prof.segments_scanned();
  return total;
}

void FleetSim::pass_conservative() {
  if (queue_.empty()) return;
  // The first position from which every waiting job already holds its
  // promise, and suffix minima of node counts and allocations from there.
  const std::size_t n = queue_.size();
  std::size_t promised_from = n;
  while (promised_from > 0 && outcomes_[queue_[promised_from - 1]].reserved_start >= 0) {
    --promised_from;
  }
  min_nodes_.resize(n);
  min_alloc_.resize(n);
  for (std::size_t k = n; k-- > promised_from;) {
    const std::size_t idx = queue_[k];
    const bool last = k + 1 == n;
    min_nodes_[k] = last ? job(idx).nodes : std::min(job(idx).nodes, min_nodes_[k + 1]);
    min_alloc_[k] = last ? alloc(idx) : std::min(alloc(idx), min_alloc_[k + 1]);
  }

  // Every queued job gets a reservation, in arrival order; the ones whose
  // reservation is "now" start.
  Profile prof = running_profile();
  std::vector<std::size_t> started;
  bool someone_waits = false;
  for (std::size_t k = 0; k < n; ++k) {
    // Early exit. Once every job left holds its promise and none fits the
    // segment holding now_, placing them changes nothing: each is placed
    // past now_ + kEps, so it does not start, and its reservation neither
    // touches that segment nor adds a breakpoint at or before now_ + kEps.
    // The segment stays as it is, and so every later job stays blocked.
    if (k >= promised_from && prof.blocked_at_start(min_nodes_[k], min_alloc_[k])) break;
    const std::size_t idx = queue_[k];
    const double est = job(idx).walltime_estimate;
    const double s = prof.earliest_start(now_, est, job(idx).nodes, alloc(idx));
    prof.commit(s, est, job(idx).nodes, alloc(idx));
    promise(idx, s);
    if (s <= now_ + kEps) {
      // Backfilled = an earlier-queued job is (or stays) blocked ahead.
      start_job(idx, someone_waits);
      started.push_back(idx);
    } else {
      someone_waits = true;
    }
  }
  result_.profile_segments_scanned += prof.segments_scanned();
  for (const std::size_t idx : started) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), idx));
  }
}

void FleetSim::pass_plan() {
  if (queue_.empty()) return;
  // Candidate orderings: arrival, shortest-estimate, smallest area,
  // smallest BB ask. Cheapest total estimated bounded slowdown wins; ties
  // keep the earlier (more arrival-faithful) candidate.
  const std::vector<std::size_t> order(queue_.begin(), queue_.end());
  std::vector<std::vector<std::size_t>> candidates{order};
  if (order.size() > 1) {
    auto sorted_by = [&](auto key) {
      std::vector<std::size_t> c(order);
      std::stable_sort(c.begin(), c.end(),
                       [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
      return c;
    };
    candidates.push_back(
        sorted_by([&](std::size_t i) { return job(i).walltime_estimate; }));
    candidates.push_back(sorted_by(
        [&](std::size_t i) { return job(i).nodes * job(i).walltime_estimate; }));
    candidates.push_back(sorted_by([&](std::size_t i) { return alloc(i); }));
  }

  double best_cost = kInf;
  std::size_t best = 0;
  std::vector<double> starts;
  std::vector<double> best_starts;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const double cost = plan_cost(candidates[c], best_cost, &starts);
    if (cost < best_cost - kEps) {
      best_cost = cost;
      best = c;
      best_starts.swap(starts);
    }
  }

  // Execute the winner's placement conservative-style: its starts are the
  // ones a fresh placement of the same order would compute. Plan-based
  // re-orders the queue on every pass, so they are not promises.
  const std::vector<std::size_t>& chosen = candidates[best];
  bool someone_waits = false;
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    if (best_starts[k] <= now_ + kEps) {
      start_job(chosen[k], someone_waits);
      queue_.erase(std::find(queue_.begin(), queue_.end(), chosen[k]));
    } else {
      someone_waits = true;
    }
  }
}

void FleetSim::schedule_pass() {
  switch (config_.policy) {
    case Policy::Fcfs: pass_fcfs(); return;
    case Policy::Easy: pass_easy(); return;
    case Policy::Conservative: pass_conservative(); return;
    case Policy::PlanBased: pass_plan(); return;
  }
}

void FleetSim::integrate_to(double t) {
  const double dt = t - now_;
  if (dt <= 0) return;
  // Down nodes are neither free nor serving a job: they count toward
  // neither utilization nor the free pool.
  const int used_nodes = machine_.nodes - free_nodes_ - down_nodes();
  const double used_bb = machine_.bb_bytes - free_bb_;
  result_.node_seconds += used_nodes * dt;
  result_.down_node_seconds += static_cast<double>(down_nodes()) * dt;
  result_.bb_byte_seconds += used_bb * dt;
  double req = 0.0;
  for (const std::size_t r : running_) req += job(r).bb_bytes;
  result_.bb_req_byte_seconds += req * dt;
  result_.queue_job_seconds += static_cast<double>(queue_.size()) * dt;
  if (!queue_.empty()) {
    const std::size_t head = queue_.front();
    if (job(head).nodes <= free_nodes_ && alloc(head) > free_bb_ + bb_eps()) {
      result_.bb_blocked_seconds += dt;
      outcomes_[head].bb_wait_seconds += dt;
    }
  }
}

void FleetSim::sample() {
  if (metrics_) {
    metrics_->series("batch.queue_depth").sample(now_, static_cast<double>(queue_.size()));
    metrics_->series("batch.free_nodes").sample(now_, static_cast<double>(free_nodes_));
    metrics_->series("batch.bb_used_bytes").sample(now_, machine_.bb_bytes - free_bb_);
    if (fault_model_) {
      metrics_->series("batch.down_nodes").sample(now_, static_cast<double>(down_nodes()));
    }
  }
  if (timeline_) {
    timeline_->counter_sample(track_free_nodes_, now_, static_cast<double>(free_nodes_));
    timeline_->counter_sample(track_bb_used_, now_, machine_.bb_bytes - free_bb_);
    if (fault_model_) {
      timeline_->counter_sample(track_down_nodes_, now_, static_cast<double>(down_nodes()));
    }
  }
}

void FleetSim::audit_ledger() {
  if (!auditor_) return;
  // Re-derive the reservation ledger from the running set and compare
  // against the scheduler's own free counters.
  int nodes_ledger = 0;
  double bb_ledger = 0.0;
  for (const std::size_t r : running_) {
    nodes_ledger += job(r).nodes;
    bb_ledger += alloc(r);
  }
  const int accounted = machine_.nodes - free_nodes_ - down_nodes();
  if (nodes_ledger != accounted) {
    auditor_->report(audit::Code::kReservationImbalance, now_, "nodes",
                     "node ledger " + std::to_string(nodes_ledger) +
                         " != accounted " + std::to_string(accounted));
  }
  if (std::abs(bb_ledger - (machine_.bb_bytes - free_bb_)) > 1.0) {
    auditor_->report(audit::Code::kReservationImbalance, now_, "bb",
                     "BB ledger " + std::to_string(bb_ledger) + " != accounted " +
                         std::to_string(machine_.bb_bytes - free_bb_));
  }
  if (free_bb_ < -1.0 || free_nodes_ < 0) {
    auditor_->report(audit::Code::kCapacityExceeded, now_, "machine",
                     "reservations exceed machine capacity (free nodes " +
                         std::to_string(free_nodes_) + ", free BB " +
                         std::to_string(free_bb_) + ")");
  }
}

void FleetSim::audit_outcome(const JobOutcome& out) {
  if (!auditor_) return;
  if (out.start < out.submit - kEps || out.end < out.start - kEps) {
    auditor_->report(audit::Code::kJobLifecycle, out.end, out.name,
                     "disordered times: submit " + std::to_string(out.submit) +
                         ", start " + std::to_string(out.start) + ", end " +
                         std::to_string(out.end));
  }
  if (out.runtime < 0 || std::abs(out.end - out.start - out.runtime) > kEps) {
    auditor_->report(audit::Code::kJobLifecycle, out.end, out.name,
                     "runtime does not match start/end");
  }
}

FleetResult FleetSim::run() {
  const std::size_t n = stream_.jobs.size();
  outcomes_.resize(n);
  alloc_.resize(n);
  exec_runtime_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& j = stream_.jobs[i];
    if (j.walltime_actual <= 0) {
      throw ConfigError("job '" + j.name +
                        "': walltime_actual unresolved (run resolve_payloads first)");
    }
    if (j.nodes > machine_.nodes) {
      throw ConfigError("job '" + j.name + "' can never run: " +
                        std::to_string(j.nodes) + " nodes > machine");
    }
    alloc_[i] = machine_.bb_alloc(j.bb_bytes);
    if (alloc_[i] > machine_.bb_bytes + bb_eps()) {
      throw ConfigError("job '" + j.name +
                        "' can never run: BB request (after granule rounding) "
                        "exceeds the machine");
    }
    exec_runtime_[i] = std::min(j.walltime_actual, j.walltime_estimate);
    JobOutcome& out = outcomes_[i];
    out.id = j.id;
    out.name = j.name;
    out.submit = j.submit;
    out.nodes = j.nodes;
    out.bb_bytes = j.bb_bytes;
    out.bb_alloc = alloc_[i];
    out.estimate = j.walltime_estimate;
  }

  result_.policy = config_.policy;
  free_nodes_ = machine_.nodes;
  free_bb_ = machine_.bb_bytes;

  if (config_.faults.node_mtbf > 0.0) {
    result_.faults_enabled = true;
    fault_model_ = std::make_unique<resil::FaultModel>(
        config_.faults, static_cast<std::size_t>(machine_.nodes));
    next_crash_.resize(static_cast<std::size_t>(machine_.nodes));
    for (std::size_t node = 0; node < next_crash_.size(); ++node) {
      next_crash_[node] = sample_crash(node, 0.0);
    }
  }

  // The run's instruments, all built here before the first event.
  if (config_.collect_metrics) metrics_ = std::make_unique<stats::MetricsRegistry>();
  if (config_.collect_timeline) {
    timeline_ = std::make_unique<trace::TimelineRecorder>();
    timeline_->set_host_names({"machine"});
    timeline_->set_wait_spans(true);
    track_free_nodes_ = timeline_->counter_track("batch.free_nodes", "nodes");
    track_bb_used_ = timeline_->counter_track("batch.bb_used_bytes", "bytes");
    if (fault_model_) {
      track_down_nodes_ = timeline_->counter_track("batch.down_nodes", "nodes");
    }
  }
  if (config_.audit) auditor_ = std::make_unique<audit::Auditor>(metrics_.get());

  // Under faults a kill can empty the running set while jobs still wait on
  // a repair -- the queue-plus-outage clause keeps the loop alive until the
  // repairs land and the queue drains.
  while (next_arrival_ < n || !running_.empty() ||
         (!queue_.empty() && !down_.empty())) {
    double t_next = kInf;
    if (next_arrival_ < n) t_next = stream_.jobs[next_arrival_].submit;
    for (const std::size_t r : running_) t_next = std::min(t_next, outcomes_[r].end);
    for (const Outage& o : down_) t_next = std::min(t_next, o.repair_end);
    if (fault_model_) {
      for (const double c : next_crash_) t_next = std::min(t_next, c);
    }

    integrate_to(t_next);
    now_ = t_next;

    // Completions first (resources free before new work is considered),
    // in (end, id) order for determinism.
    std::vector<std::size_t> done;
    for (const std::size_t r : running_) {
      if (outcomes_[r].end <= now_ + kEps) done.push_back(r);
    }
    std::sort(done.begin(), done.end(),
              [&](std::size_t a, std::size_t b) { return job(a).id < job(b).id; });
    for (const std::size_t r : done) {
      running_.erase(std::find(running_.begin(), running_.end(), r));
      free_nodes_ += job(r).nodes;
      result_.makespan = std::max(result_.makespan, outcomes_[r].end);
      if (metrics_) {
        metrics_->histogram("batch.wait_seconds").record(outcomes_[r].wait());
        metrics_->histogram("batch.bounded_slowdown")
            .record(outcomes_[r].bounded_slowdown(config_.tau));
      }
      audit_outcome(outcomes_[r]);
    }
    if (!done.empty()) {
      // Resync the free pool from the reservation ledger instead of adding
      // the freed bytes back incrementally: repeated += / -= of 1e12-scale
      // doubles accumulates drift across thousands of events, and a pool
      // that drifts a hair below a full-machine reservation deadlocks the
      // queue. One fresh summation has bounded, non-accumulating error.
      double reserved = 0.0;
      for (const std::size_t r : running_) reserved += alloc(r);
      free_bb_ = machine_.bb_bytes - reserved;
    }

    apply_outages();

    while (next_arrival_ < n && stream_.jobs[next_arrival_].submit <= now_ + kEps) {
      queue_.push_back(next_arrival_);
      ++next_arrival_;
    }

    schedule_pass();
    audit_ledger();
    sample();
  }

  if (auditor_ && !queue_.empty()) {
    auditor_->report(audit::Code::kJobLifecycle, audit::kPostRun, "queue",
                     std::to_string(queue_.size()) + " jobs never started");
  }

  result_.jobs = std::move(outcomes_);
  std::sort(result_.jobs.begin(), result_.jobs.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  if (timeline_) {
    for (const JobOutcome& out : result_.jobs) {
      trace::TaskSpan span;
      span.name = out.name;
      span.type = "job";
      span.host = 0;
      span.cores = out.nodes;
      span.t_ready = out.submit;
      span.t_start = out.start;
      span.t_reads_done = out.start;
      span.t_compute_done = out.end;
      span.t_end = out.end;
      timeline_->add_task(span);
    }
    result_.timeline =
        std::make_shared<const trace::Timeline>(timeline_->finish());
  }
  if (metrics_) result_.metrics = metrics_->to_json();
  if (auditor_) {
    result_.audit = auditor_->to_json();
    result_.audit_violations = auditor_->total();
  }
  return result_;
}

}  // namespace

FleetResult run_scheduler(const MachineSpec& machine, const JobStream& stream,
                          const SchedulerConfig& config) {
  if (machine.nodes < 1) throw ConfigError("machine: nodes must be >= 1");
  if (machine.bb_bytes < 0) throw ConfigError("machine: negative BB capacity");
  return FleetSim(machine, stream, config).run();
}

}  // namespace bbsim::batch
