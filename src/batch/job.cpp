#include "batch/job.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bbsim::batch {

using util::ConfigError;

const char* to_string(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::None: return "none";
    case PayloadKind::Scale: return "scale";
    case PayloadKind::Layered: return "layered";
    case PayloadKind::Chain: return "chain";
    case PayloadKind::FanOut: return "fan_out";
    case PayloadKind::FanIn: return "fan_in";
    case PayloadKind::ForkJoin: return "fork_join";
  }
  return "none";
}

PayloadKind payload_kind_from_string(const std::string& text) {
  if (text == "none") return PayloadKind::None;
  if (text == "scale") return PayloadKind::Scale;
  if (text == "layered") return PayloadKind::Layered;
  if (text == "chain") return PayloadKind::Chain;
  if (text == "fan_out") return PayloadKind::FanOut;
  if (text == "fan_in") return PayloadKind::FanIn;
  if (text == "fork_join") return PayloadKind::ForkJoin;
  throw ConfigError("unknown payload shape '" + text +
                    "' (expected none|scale|layered|chain|fan_out|fan_in|fork_join)");
}

void validate_stream(JobStream& stream, int machine_nodes, double machine_bb_bytes) {
  std::stable_sort(stream.jobs.begin(), stream.jobs.end(),
                   [](const Job& a, const Job& b) {
                     if (a.submit != b.submit) return a.submit < b.submit;
                     return a.id < b.id;
                   });
  std::vector<std::size_t> ids;
  ids.reserve(stream.jobs.size());
  for (Job& job : stream.jobs) {
    if (job.name.empty()) job.name = "job" + std::to_string(job.id);
    const std::string who = "job '" + job.name + "' (id " + std::to_string(job.id) + ")";
    if (job.submit < 0) throw ConfigError(who + ": negative submit time");
    if (job.nodes < 1) throw ConfigError(who + ": nodes must be >= 1");
    if (job.walltime_estimate <= 0) {
      throw ConfigError(who + ": walltime_estimate must be positive");
    }
    if (job.walltime_actual <= 0 && job.payload.kind == PayloadKind::None) {
      throw ConfigError(who + ": walltime_actual missing and no payload to derive it");
    }
    if (job.bb_bytes < 0) throw ConfigError(who + ": negative bb_bytes");
    if (job.payload.kind != PayloadKind::None && job.payload.tasks == 0) {
      throw ConfigError(who + ": payload tasks must be >= 1");
    }
    if (machine_nodes > 0 && job.nodes > machine_nodes) {
      throw ConfigError(who + ": requests " + std::to_string(job.nodes) +
                        " nodes but the machine has " + std::to_string(machine_nodes));
    }
    if (machine_bb_bytes > 0 && job.bb_bytes > machine_bb_bytes) {
      throw ConfigError(who + ": BB request exceeds the machine's capacity");
    }
    // NaN and infinity pass the range checks above; they break the
    // scheduler's arithmetic and the report's serialisation.
    const auto require_finite = [&who](const char* field, double value) {
      if (!std::isfinite(value)) throw ConfigError(who + ": " + field + " must be finite");
    };
    require_finite("submit", job.submit);
    require_finite("walltime_estimate", job.walltime_estimate);
    require_finite("walltime_actual", job.walltime_actual);
    require_finite("bb_bytes", job.bb_bytes);
    ids.push_back(job.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    throw ConfigError("job stream '" + stream.name + "': duplicate job ids");
  }
}

json::Value stream_to_json(const JobStream& stream) {
  json::Object root;
  root.set("schema", "bbsim.jobs.v1");
  root.set("name", stream.name);
  root.set("seed", static_cast<std::size_t>(stream.seed));
  json::Array jobs;
  for (const Job& job : stream.jobs) {
    json::Object o;
    o.set("id", job.id);
    o.set("name", job.name);
    o.set("submit", job.submit);
    o.set("nodes", job.nodes);
    o.set("walltime_estimate", job.walltime_estimate);
    if (job.walltime_actual > 0) o.set("walltime_actual", job.walltime_actual);
    o.set("bb_bytes", job.bb_bytes);
    if (job.payload.kind != PayloadKind::None) {
      json::Object p;
      p.set("shape", to_string(job.payload.kind));
      p.set("tasks", job.payload.tasks);
      p.set("width", job.payload.width);
      o.set("payload", json::Value(std::move(p)));
    }
    jobs.push_back(json::Value(std::move(o)));
  }
  root.set("jobs", json::Value(std::move(jobs)));
  return json::Value(std::move(root));
}

JobStream stream_from_json(const json::Value& doc) {
  if (!doc.is_object()) throw ConfigError("job stream: document must be an object");
  const std::string schema = doc.get_string("schema", "");
  if (schema != "bbsim.jobs.v1") {
    throw ConfigError("job stream: expected schema bbsim.jobs.v1, got '" + schema + "'");
  }
  JobStream stream;
  stream.name = doc.get_string("name", "");
  stream.seed = static_cast<std::uint64_t>(doc.get_number("seed", 0.0));
  const json::Value* jobs = doc.as_object().find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    throw ConfigError("job stream: missing 'jobs' array");
  }
  std::size_t fallback_id = 0;
  for (const json::Value& entry : jobs->as_array()) {
    if (!entry.is_object()) throw ConfigError("job stream: job entries must be objects");
    Job job;
    job.id = static_cast<std::size_t>(entry.get_number("id", static_cast<double>(fallback_id)));
    job.name = entry.get_string("name", "");
    job.submit = entry.get_number("submit", 0.0);
    job.nodes = static_cast<int>(entry.get_int("nodes", 1));
    job.walltime_estimate = entry.get_number("walltime_estimate", 0.0);
    job.walltime_actual = entry.get_number("walltime_actual", 0.0);
    job.bb_bytes = entry.get_number("bb_bytes", 0.0);
    if (const json::Value* p = entry.as_object().find("payload")) {
      job.payload.kind = payload_kind_from_string(p->get_string("shape", "none"));
      job.payload.tasks = static_cast<std::size_t>(p->get_number("tasks", 16.0));
      job.payload.width = static_cast<std::size_t>(p->get_number("width", 4.0));
    }
    stream.jobs.push_back(std::move(job));
    ++fallback_id;
  }
  validate_stream(stream);
  return stream;
}

JobStream load_jobs_file(const std::string& path) {
  return stream_from_json(json::parse_file(path));
}

}  // namespace bbsim::batch
