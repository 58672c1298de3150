#include "exec/trace.hpp"

#include "resil/fault.hpp"
#include "util/strings.hpp"

namespace bbsim::exec {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::TaskReady: return "task_ready";
    case TraceEventKind::TaskStart: return "task_start";
    case TraceEventKind::ReadsDone: return "reads_done";
    case TraceEventKind::ComputeDone: return "compute_done";
    case TraceEventKind::Write: return "write";
    case TraceEventKind::TaskEnd: return "task_end";
    case TraceEventKind::StageFile: return "stage_file";
    case TraceEventKind::StageSkipped: return "stage_skipped";
    case TraceEventKind::StageOut: return "stage_out";
    case TraceEventKind::Evict: return "evict";
    case TraceEventKind::NodeCrash: return "node_crash";
    case TraceEventKind::NodeRepair: return "node_repair";
    case TraceEventKind::BbDegraded: return "bb_degraded";
    case TraceEventKind::PfsBrownout: return "pfs_brownout";
    case TraceEventKind::FaultCleared: return "fault_cleared";
    case TraceEventKind::TaskKilled: return "task_killed";
    case TraceEventKind::TaskRestart: return "task_restart";
    case TraceEventKind::Rollback: return "rollback";
    case TraceEventKind::Checkpoint: return "checkpoint";
    case TraceEventKind::CheckpointDrained: return "checkpoint_drained";
    case TraceEventKind::Read: return "read";
    case TraceEventKind::CheckpointDone: return "checkpoint_done";
  }
  return "?";
}

std::string detail(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::TaskStart:
      return util::format("host=%zu cores=%d", e.host, e.count);
    case TraceEventKind::Write:
    case TraceEventKind::Checkpoint:
      return util::format("%s -> %s", e.file.c_str(), e.service.c_str());
    case TraceEventKind::StageFile:
      return util::format("%s -> bb (host %zu)", e.file.c_str(), e.host);
    case TraceEventKind::StageSkipped:
    case TraceEventKind::StageOut:
    case TraceEventKind::Evict:
      return e.file;
    case TraceEventKind::NodeCrash:
    case TraceEventKind::NodeRepair:
      return util::format("host=%zu", e.host);
    case TraceEventKind::BbDegraded:
    case TraceEventKind::PfsBrownout:
      return util::format("scale=%.3f duration=%.1f", e.scale, e.duration);
    case TraceEventKind::FaultCleared:
      return to_string(e.tier);
    case TraceEventKind::TaskKilled:
      return util::format("host=%zu attempt=%d", e.host, e.count);
    case TraceEventKind::TaskRestart:
    case TraceEventKind::Rollback:
      return util::format("attempt=%d", e.count);
    case TraceEventKind::TaskReady:
    case TraceEventKind::ReadsDone:
    case TraceEventKind::ComputeDone:
    case TraceEventKind::TaskEnd:
    case TraceEventKind::CheckpointDrained:
    case TraceEventKind::Read:
    case TraceEventKind::CheckpointDone:
      break;
  }
  return "";
}

std::vector<const TaskRecord*> Result::records_of(const std::string& type) const {
  std::vector<const TaskRecord*> out;
  for (const auto& [_, rec] : tasks) {
    if (rec.type == type) out.push_back(&rec);
  }
  return out;
}

json::Value Result::to_json() const {
  json::Object root;
  root.set("schema", "bbsim.run.v1");
  root.set("makespan", makespan);
  root.set("stage_in_duration", stage_in_duration);
  root.set("stage_out_duration", stage_out_duration);
  root.set("workflow_span", workflow_span);
  root.set("demoted_writes", demoted_writes);
  root.set("skipped_stage_files", skipped_stage_files);
  root.set("evicted_files", evicted_files);

  json::Array task_arr;
  for (const auto& [_, rec] : tasks) {
    json::Object t;
    t.set("name", rec.name);
    t.set("type", rec.type);
    t.set("host", rec.host);
    t.set("cores", rec.cores);
    t.set("t_ready", rec.t_ready);
    t.set("t_start", rec.t_start);
    t.set("t_reads_done", rec.t_reads_done);
    t.set("t_compute_done", rec.t_compute_done);
    t.set("t_end", rec.t_end);
    t.set("bytes_read", rec.bytes_read);
    t.set("bytes_written", rec.bytes_written);
    t.set("lambda_io", rec.lambda_io());
    task_arr.push_back(json::Value(std::move(t)));
  }
  root.set("tasks", json::Value(std::move(task_arr)));

  json::Array storage_arr;
  for (const StorageCounters& s : storage) {
    json::Object o;
    o.set("service", s.service);
    o.set("bytes_served", s.bytes_served);
    o.set("busy_time", s.busy_time);
    o.set("achieved_bandwidth", s.achieved_bandwidth());
    if (!s.bandwidth_series.empty()) {
      json::Array series;
      for (const auto& [t, bw] : s.bandwidth_series) {
        json::Array point;
        point.push_back(json::Value(t));
        point.push_back(json::Value(bw));
        series.push_back(json::Value(std::move(point)));
      }
      o.set("bandwidth_series", json::Value(std::move(series)));
    }
    storage_arr.push_back(json::Value(std::move(o)));
  }
  root.set("storage", json::Value(std::move(storage_arr)));

  json::Array trace_arr;
  for (const TraceEvent& e : trace) {
    json::Object o;
    o.set("time", e.time);
    o.set("kind", to_string(e.kind));
    o.set("task", e.task);
    o.set("detail", detail(e));
    trace_arr.push_back(json::Value(std::move(o)));
  }
  root.set("trace", json::Value(std::move(trace_arr)));
  if (!metrics.is_null()) root.set("metrics", metrics);
  if (!audit.is_null()) root.set("audit", audit);
  if (!profile.is_null()) root.set("profile", profile);
  if (resil_stats) root.set("resil", resil_stats->to_json());
  if (!critpath.is_null()) root.set("critpath", critpath);
  return json::Value(std::move(root));
}

}  // namespace bbsim::exec
