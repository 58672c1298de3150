#include "critpath/critpath.hpp"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <iterator>
#include <utility>

namespace bbsim::critpath {

namespace {

constexpr const char* kImplicitStageName = "implicit_stage_in";
constexpr const char* kStageOutName = "stage_out";

std::size_t blame_index(Blame blame) { return static_cast<std::size_t>(blame); }

}  // namespace

const char* to_string(Blame blame) {
  switch (blame) {
    case Blame::kCompute:
      return "compute";
    case Blame::kBbTransfer:
      return "bb_transfer";
    case Blame::kPfsTransfer:
      return "pfs_transfer";
    case Blame::kBbCapacityWait:
      return "bb_capacity_wait";
    case Blame::kQueueWait:
      return "queue_wait";
    case Blame::kRecoveryRework:
      return "recovery_rework";
  }
  return "unknown";
}

double Report::path_length() const {
  double total = 0.0;
  for (const Segment& seg : path) total += seg.duration();
  return total;
}

double Report::blame_total() const {
  double total = 0.0;
  for (double b : blame) total += b;
  return total;
}

void Report::set_blame_from_path() {
  blame.fill(0.0);
  for (const Segment& seg : path) blame[blame_index(seg.blame)] += seg.duration();
}

json::Value Report::to_json() const {
  json::Object root;
  root.set("schema", "bbsim.critpath.v1");
  root.set("makespan", makespan);
  root.set("path_length", path_length());
  json::Object blame_obj;
  json::Object frac_obj;
  for (Blame b : kAllBlames) {
    const double seconds = blame[blame_index(b)];
    blame_obj.set(to_string(b), seconds);
    frac_obj.set(to_string(b), makespan > 0.0 ? seconds / makespan : 0.0);
  }
  root.set("blame", std::move(blame_obj));
  root.set("blame_fractions", std::move(frac_obj));
  json::Array path_arr;
  for (const Segment& seg : path) {
    json::Object s;
    s.set("task", seg.task);
    s.set("phase", seg.phase);
    s.set("class", to_string(seg.blame));
    s.set("start", seg.start);
    s.set("end", seg.end);
    s.set("duration", seg.duration());
    path_arr.push_back(std::move(s));
  }
  root.set("path", std::move(path_arr));
  json::Array slack_arr;
  for (const auto& [task, value] : slack) {
    json::Object s;
    s.set("task", task);
    s.set("slack", value);
    slack_arr.push_back(std::move(s));
  }
  root.set("slack", std::move(slack_arr));
  json::Array what_if_arr;
  for (const WhatIf& w : what_ifs) {
    json::Object s;
    s.set("scenario", w.scenario);
    s.set("makespan", w.makespan);
    s.set("speedup", w.makespan > 0.0 ? makespan / w.makespan
                                      : (makespan > 0.0 ? 0.0 : 1.0));
    what_if_arr.push_back(std::move(s));
  }
  root.set("what_if", std::move(what_if_arr));
  return json::Value(std::move(root));
}

namespace {

// One task's slice of the causal chain: its segments from the terminating
// readiness event (cause kParent or kWorkflowStart) up to t_end, in
// chronological order, plus how the chain continues upstream.
struct ChainWalk {
  std::vector<Segment> segments;
  ReadyCause terminal;   // kParent or kWorkflowStart
  double arrival = 0.0;  // time of the terminating readiness event
};

void push_segment(std::vector<Segment>& out, const std::string& task,
                  const char* phase, Blame blame, double start, double end) {
  if (end > start) out.push_back(Segment{task, phase, blame, start, end});
}

// Split window [start, end] into tier sub-segments proportional to the byte
// (or, when byteless, op-count) mix, with an optional leading rework slice.
void split_transfer_window(std::vector<Segment>& out, const std::string& task,
                           const char* phase, double start, double end,
                           double rework, double bb_amount, double pfs_amount) {
  if (end <= start) return;
  double cursor = start;
  if (rework > 0.0) {
    const double rework_end = std::min(end, start + rework);
    push_segment(out, task, "rework", Blame::kRecoveryRework, cursor,
                 rework_end);
    cursor = rework_end;
  }
  if (cursor >= end) return;
  const double total = bb_amount + pfs_amount;
  if (total <= 0.0) {
    // No recorded transfers at all: a pure latency window, charged to the
    // PFS class (metadata round-trips hit the slowest tier's latency).
    push_segment(out, task, phase, Blame::kPfsTransfer, cursor, end);
    return;
  }
  const double mid = cursor + (end - cursor) * (bb_amount / total);
  push_segment(out, task, phase, Blame::kBbTransfer, cursor, mid);
  push_segment(out, task, phase, Blame::kPfsTransfer, mid, end);
}

// Transfer weights of one window, BB then PFS: the bytes moved, or the op
// counts when no bytes moved at all (a pure-metadata window).
std::pair<double, double> tier_weights(const TierIo& bb, const TierIo& pfs) {
  if (bb.bytes > 0.0 || pfs.bytes > 0.0) return {bb.bytes, pfs.bytes};
  return {static_cast<double>(bb.ops), static_cast<double>(pfs.ops)};
}

ChainWalk walk_task(const TaskTimes& task) {
  const TaskTrace& trace = task.trace;
  ChainWalk walk;
  // Final-attempt phases, chronological. For stage-in pseudo tasks the whole
  // active span is a PFS->BB copy.
  push_segment(walk.segments, task.name, "wait", Blame::kQueueWait,
               task.t_ready, task.t_start);
  if (task.stage_in) {
    push_segment(walk.segments, task.name, "stage", Blame::kPfsTransfer,
                 task.t_start, task.t_end);
  } else {
    const AttemptTally& attempt = trace.attempt;
    const auto [read_bb, read_pfs] = tier_weights(attempt.read_bb, attempt.read_pfs);
    const auto [write_bb, write_pfs] = tier_weights(attempt.write_bb, attempt.write_pfs);
    const double ckpt_bb = attempt.ckpt_bb_seconds;
    const double ckpt_pfs = attempt.ckpt_pfs_seconds;
    const double restart_delay = attempt.restart_delay_seconds;
    split_transfer_window(walk.segments, task.name, "read", task.t_start,
                          task.t_reads_done, restart_delay, read_bb, read_pfs);
    // Compute window: productive compute first, then the checkpoint-write
    // stalls (checkpoints close compute segments), each charged to the
    // destination tier's transfer class.
    const double compute_span = task.t_compute_done - task.t_reads_done;
    if (compute_span > 0.0) {
      double stall_bb = std::min(ckpt_bb, compute_span);
      double stall_pfs = std::min(ckpt_pfs, compute_span - stall_bb);
      double cursor = task.t_reads_done;
      const double compute_end =
          task.t_compute_done - stall_bb - stall_pfs;
      push_segment(walk.segments, task.name, "compute", Blame::kCompute,
                   cursor, compute_end);
      cursor = std::max(cursor, compute_end);
      push_segment(walk.segments, task.name, "ckpt_stall", Blame::kBbTransfer,
                   cursor, cursor + stall_bb);
      cursor = std::min(task.t_compute_done, cursor + stall_bb);
      push_segment(walk.segments, task.name, "ckpt_stall", Blame::kPfsTransfer,
                   cursor, task.t_compute_done);
    }
    split_transfer_window(walk.segments, task.name, "write",
                          task.t_compute_done, task.t_end, 0.0, write_bb,
                          write_pfs);
  }

  // Walk readiness events backwards through aborted attempts until the
  // chain leaves the task (a parent edge or the workflow start). A requeue
  // or rollback readiness event is always recorded immediately after its
  // abort, so the abort cursor stays aligned even when an un-readied task
  // (parent rollback) added a readiness event with no matching abort.
  walk.terminal = ReadyCause{};
  walk.arrival = task.t_ready;
  if (trace.ready.empty()) return walk;
  std::size_t i = trace.ready.size() - 1;
  std::size_t remaining_aborts = trace.aborted.size();
  std::vector<Segment> prior;  // reverse chronological
  for (;;) {
    const ReadyEvent& event = trace.ready[i];
    const bool resumed = event.cause.kind == ReadyCause::Kind::kRequeue ||
                         event.cause.kind == ReadyCause::Kind::kRollback;
    if (!resumed || i == 0 || remaining_aborts == 0) {
      walk.terminal = event.cause;
      walk.arrival = event.time;
      break;
    }
    const AbortedAttempt& attempt = trace.aborted[--remaining_aborts];
    push_segment(prior, task.name, "rework", Blame::kRecoveryRework,
                 attempt.t_start, event.time);
    push_segment(prior, task.name, "wait", Blame::kQueueWait, attempt.t_ready,
                 attempt.t_start);
    --i;
  }
  walk.segments.insert(walk.segments.begin(),
                       std::make_move_iterator(prior.rbegin()),
                       std::make_move_iterator(prior.rend()));
  return walk;
}

std::array<double, kBlameCount> components_of(
    const std::vector<Segment>& segments) {
  std::array<double, kBlameCount> comps{};
  for (const Segment& seg : segments) {
    comps[blame_index(seg.blame)] += seg.duration();
  }
  return comps;
}

struct Scenario {
  const char* name;
  std::array<double, kBlameCount> scale;
};

std::array<double, kBlameCount> scale_all_but(
    std::initializer_list<Blame> zeroed) {
  std::array<double, kBlameCount> scale;
  scale.fill(1.0);
  for (Blame b : zeroed) scale[blame_index(b)] = 0.0;
  return scale;
}

}  // namespace

Report analyze(const AnalyzeInput& input) {
  Report report;
  report.makespan = input.makespan;
  if (input.tasks.empty()) {
    report.what_ifs.push_back(
        WhatIf{"baseline", scale_all_but({}), input.makespan});
    return report;
  }

  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < input.tasks.size(); ++i) {
    by_name.emplace(input.tasks[i].name, i);
  }

  // Per-task chain walks, computed once and shared by the path extraction,
  // the slack pass, and the what-if replay.
  std::vector<ChainWalk> walks;
  walks.reserve(input.tasks.size());
  for (const TaskTimes& task : input.tasks) {
    walks.push_back(walk_task(task));
  }

  // --- Critical path: back-walk from the task that sets the makespan. ---
  std::size_t sink = 0;
  for (std::size_t i = 1; i < input.tasks.size(); ++i) {
    const TaskTimes& cand = input.tasks[i];
    const TaskTimes& best = input.tasks[sink];
    if (cand.t_end > best.t_end ||
        (cand.t_end == best.t_end && cand.name < best.name)) {
      sink = i;
    }
  }
  std::vector<Segment> rev_path;
  if (input.stage_out_duration > 0.0) {
    push_segment(rev_path, kStageOutName, "stage_out", Blame::kPfsTransfer,
                 input.tasks[sink].t_end, input.makespan);
  }
  std::size_t current = sink;
  for (;;) {
    const ChainWalk& walk = walks[current];
    rev_path.insert(rev_path.end(), walk.segments.rbegin(),
                    walk.segments.rend());
    if (walk.terminal.kind == ReadyCause::Kind::kParent) {
      auto it = by_name.find(walk.terminal.parent);
      if (it == by_name.end()) break;  // defensive: unknown parent
      current = it->second;
      continue;
    }
    // Workflow start. Any remaining head time is the implicit stage-in
    // window if one ran, otherwise a start gap kept as queue wait so the
    // partition of [0, makespan] stays exact.
    if (walk.arrival > 0.0) {
      if (input.implicit_stage_in) {
        push_segment(rev_path, kImplicitStageName, "stage",
                     Blame::kPfsTransfer, 0.0, walk.arrival);
      } else {
        push_segment(rev_path, input.tasks[current].name, "wait",
                     Blame::kQueueWait, 0.0, walk.arrival);
      }
    }
    break;
  }
  report.path.assign(rev_path.rbegin(), rev_path.rend());
  report.set_blame_from_path();

  // --- Slack: classic CPM latest-finish over the recorded chain graph. ---
  // LF(t) = min(makespan - stage_out, min over children c of
  // LF(c) - chaindur(c)); slack(t) = LF(t) - t_end(t). Chains are treated
  // as rigid, so this is a conservative (lower-bound) slack.
  std::vector<std::vector<std::size_t>> children(input.tasks.size());
  std::vector<std::size_t> child_count(input.tasks.size(), 0);
  for (std::size_t i = 0; i < input.tasks.size(); ++i) {
    for (const std::string& parent : input.tasks[i].parents) {
      auto it = by_name.find(parent);
      if (it != by_name.end()) {
        children[it->second].push_back(i);
        ++child_count[it->second];
      }
    }
  }
  std::vector<double> chain_dur(input.tasks.size(), 0.0);
  for (std::size_t i = 0; i < input.tasks.size(); ++i) {
    for (const Segment& seg : walks[i].segments) {
      chain_dur[i] += seg.duration();
    }
  }
  // Reverse topological order: repeatedly peel tasks whose children are all
  // resolved. by_name iteration keeps tie-breaks name-deterministic.
  std::vector<double> latest_finish(input.tasks.size(),
                                    input.makespan - input.stage_out_duration);
  {
    std::vector<std::size_t> pending = child_count;
    std::deque<std::size_t> frontier;
    for (const auto& [name, idx] : by_name) {
      (void)name;
      if (pending[idx] == 0) frontier.push_back(idx);
    }
    while (!frontier.empty()) {
      const std::size_t idx = frontier.front();
      frontier.pop_front();
      for (std::size_t child : children[idx]) {
        latest_finish[idx] = std::min(latest_finish[idx],
                                      latest_finish[child] - chain_dur[child]);
      }
      for (const std::string& parent : input.tasks[idx].parents) {
        auto it = by_name.find(parent);
        if (it != by_name.end() && --pending[it->second] == 0) {
          frontier.push_back(it->second);
        }
      }
    }
  }
  for (std::size_t i = 0; i < input.tasks.size(); ++i) {
    report.slack[input.tasks[i].name] =
        std::max(0.0, latest_finish[i] - input.tasks[i].t_end);
  }

  // --- What-if replay: re-walk the recorded graph with scaled classes. ---
  std::vector<std::array<double, kBlameCount>> comps(input.tasks.size());
  for (std::size_t i = 0; i < input.tasks.size(); ++i) {
    comps[i] = components_of(walks[i].segments);
  }
  const Scenario scenarios[] = {
      {"baseline", scale_all_but({})},
      {"infinite_bb_bandwidth", scale_all_but({Blame::kBbTransfer})},
      {"infinite_pfs_bandwidth", scale_all_but({Blame::kPfsTransfer})},
      {"no_queue_wait",
       scale_all_but({Blame::kQueueWait, Blame::kBbCapacityWait})},
      {"no_faults", scale_all_but({Blame::kRecoveryRework})},
  };
  // Forward topological order over parent edges.
  std::vector<std::size_t> topo;
  topo.reserve(input.tasks.size());
  {
    std::vector<std::size_t> pending(input.tasks.size(), 0);
    for (std::size_t i = 0; i < input.tasks.size(); ++i) {
      for (const std::string& parent : input.tasks[i].parents) {
        if (by_name.count(parent) != 0) ++pending[i];
      }
    }
    std::deque<std::size_t> frontier;
    for (const auto& [name, idx] : by_name) {
      (void)name;
      if (pending[idx] == 0) frontier.push_back(idx);
    }
    while (!frontier.empty()) {
      const std::size_t idx = frontier.front();
      frontier.pop_front();
      topo.push_back(idx);
      for (std::size_t child : children[idx]) {
        if (--pending[child] == 0) frontier.push_back(child);
      }
    }
  }
  for (const Scenario& scenario : scenarios) {
    std::vector<double> finish(input.tasks.size(), 0.0);
    double latest = 0.0;
    for (std::size_t idx : topo) {
      const ChainWalk& walk = walks[idx];
      double base = 0.0;
      if (walk.terminal.kind == ReadyCause::Kind::kWorkflowStart &&
          walk.arrival > 0.0) {
        // Virtual head node: the implicit stage-in window is a PFS
        // transfer; a bare start gap scales with queue wait.
        const Blame head =
            input.implicit_stage_in ? Blame::kPfsTransfer : Blame::kQueueWait;
        base = scenario.scale[blame_index(head)] * walk.arrival;
      }
      for (const std::string& parent : input.tasks[idx].parents) {
        auto it = by_name.find(parent);
        if (it == by_name.end()) continue;
        // A parent whose final attempt ended after this chain began was
        // rolled back after this task had consumed an earlier attempt of
        // it, which no replay node models: that edge stays at the
        // observed readiness time.
        base = std::max(base, input.tasks[it->second].t_end > walk.arrival
                                  ? walk.arrival
                                  : finish[it->second]);
      }
      double work = 0.0;
      for (std::size_t c = 0; c < kBlameCount; ++c) {
        work += scenario.scale[c] * comps[idx][c];
      }
      finish[idx] = base + work;
      latest = std::max(latest, finish[idx]);
    }
    const double tail =
        scenario.scale[blame_index(Blame::kPfsTransfer)] *
        input.stage_out_duration;
    report.what_ifs.push_back(
        WhatIf{scenario.name, scenario.scale, latest + tail});
  }
  return report;
}

}  // namespace bbsim::critpath
