#include "resil/fault.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::resil {

using util::ConfigError;

namespace {

/// Split "key=value" with validation.
std::pair<std::string, std::string> key_value(const std::string& entry,
                                              const char* what) {
  const auto eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ConfigError(std::string(what) + ": expected key=value, got '" + entry + "'");
  }
  return {util::trim(entry.substr(0, eq)), util::trim(entry.substr(eq + 1))};
}

void validate(const FaultSpec& spec) {
  auto check = [](bool ok, const std::string& msg) {
    if (!ok) throw ConfigError("fault spec: " + msg);
  };
  check(spec.node_mtbf >= 0.0, "node_mtbf must be >= 0");
  check(spec.bb_mtbf >= 0.0, "bb_mtbf must be >= 0");
  check(spec.pfs_mtbf >= 0.0, "pfs_mtbf must be >= 0");
  check(spec.node_shape > 0.0, "node_shape must be > 0");
  check(spec.bb_shape > 0.0, "bb_shape must be > 0");
  check(spec.pfs_shape > 0.0, "pfs_shape must be > 0");
  check(spec.node_repair >= 0.0, "node_repair must be >= 0");
  check(spec.bb_degrade > 0.0 && spec.bb_degrade <= 1.0, "bb_degrade must be in (0, 1]");
  check(spec.pfs_brownout > 0.0 && spec.pfs_brownout <= 1.0,
        "pfs_brownout must be in (0, 1]");
  check(spec.bb_duration >= 0.0, "bb_duration must be >= 0");
  check(spec.pfs_duration >= 0.0, "pfs_duration must be >= 0");
  check(spec.horizon >= 0.0, "horizon must be >= 0");
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (util::trim(text).empty()) return spec;
  for (const std::string& raw : util::split(text, ',')) {
    const std::string entry = util::trim(raw);
    if (entry.empty()) continue;
    const auto [key, value] = key_value(entry, "fault spec");
    const std::string what = "fault spec key '" + key + "'";
    if (key == "seed") {
      spec.seed = util::to_integer<std::uint64_t>(value, what);
    } else if (key == "node_mtbf") {
      spec.node_mtbf = util::to_number(value, what);
    } else if (key == "node_shape") {
      spec.node_shape = util::to_number(value, what);
    } else if (key == "node_repair") {
      spec.node_repair = util::to_number(value, what);
    } else if (key == "bb_mtbf") {
      spec.bb_mtbf = util::to_number(value, what);
    } else if (key == "bb_shape") {
      spec.bb_shape = util::to_number(value, what);
    } else if (key == "bb_degrade") {
      spec.bb_degrade = util::to_number(value, what);
    } else if (key == "bb_duration") {
      spec.bb_duration = util::to_number(value, what);
    } else if (key == "pfs_mtbf") {
      spec.pfs_mtbf = util::to_number(value, what);
    } else if (key == "pfs_shape") {
      spec.pfs_shape = util::to_number(value, what);
    } else if (key == "pfs_brownout") {
      spec.pfs_brownout = util::to_number(value, what);
    } else if (key == "pfs_duration") {
      spec.pfs_duration = util::to_number(value, what);
    } else if (key == "horizon") {
      spec.horizon = util::to_number(value, what);
    } else {
      throw ConfigError("fault spec: unknown key '" + key + "'");
    }
  }
  validate(spec);
  return spec;
}

json::Value FaultSpec::to_json() const {
  json::Object o;
  o.set("seed", static_cast<double>(seed));
  o.set("node_mtbf", node_mtbf);
  o.set("node_shape", node_shape);
  o.set("node_repair", node_repair);
  o.set("bb_mtbf", bb_mtbf);
  o.set("bb_shape", bb_shape);
  o.set("bb_degrade", bb_degrade);
  o.set("bb_duration", bb_duration);
  o.set("pfs_mtbf", pfs_mtbf);
  o.set("pfs_shape", pfs_shape);
  o.set("pfs_brownout", pfs_brownout);
  o.set("pfs_duration", pfs_duration);
  o.set("horizon", horizon);
  return json::Value(std::move(o));
}

FaultSpec FaultSpec::from_json(const json::Value& v) {
  FaultSpec spec;
  spec.seed = static_cast<std::uint64_t>(v.get_number("seed", 1.0));
  spec.node_mtbf = v.get_number("node_mtbf", 0.0);
  spec.node_shape = v.get_number("node_shape", 1.0);
  spec.node_repair = v.get_number("node_repair", 30.0);
  spec.bb_mtbf = v.get_number("bb_mtbf", 0.0);
  spec.bb_shape = v.get_number("bb_shape", 1.0);
  spec.bb_degrade = v.get_number("bb_degrade", 0.5);
  spec.bb_duration = v.get_number("bb_duration", 60.0);
  spec.pfs_mtbf = v.get_number("pfs_mtbf", 0.0);
  spec.pfs_shape = v.get_number("pfs_shape", 1.0);
  spec.pfs_brownout = v.get_number("pfs_brownout", 0.5);
  spec.pfs_duration = v.get_number("pfs_duration", 60.0);
  spec.horizon = v.get_number("horizon", 0.0);
  validate(spec);
  return spec;
}

const char* to_string(CheckpointSpec::Mode mode) {
  switch (mode) {
    case CheckpointSpec::Mode::None:
      return "none";
    case CheckpointSpec::Mode::Interval:
      return "interval";
    case CheckpointSpec::Mode::Daly:
      return "daly";
  }
  return "none";
}

CheckpointSpec CheckpointSpec::parse(const std::string& text) {
  CheckpointSpec spec;
  if (util::trim(text).empty()) return spec;
  for (const std::string& raw : util::split(text, ',')) {
    const std::string entry = util::trim(raw);
    if (entry.empty()) continue;
    if (entry == "none") {
      spec.mode = Mode::None;
      continue;
    }
    if (entry == "daly") {
      spec.mode = Mode::Daly;
      continue;
    }
    const auto [key, value] = key_value(entry, "checkpoint spec");
    const std::string what = "checkpoint spec key '" + key + "'";
    if (key == "interval") {
      spec.mode = Mode::Interval;
      spec.interval = util::to_number(value, what);
    } else if (key == "bytes") {
      try {
        spec.bytes = util::parse_size(value);
      } catch (const std::exception&) {
        throw ConfigError("checkpoint spec: bad size '" + value + "'");
      }
    } else if (key == "fraction") {
      spec.fraction = util::to_number(value, what);
    } else if (key == "restart") {
      spec.restart_latency = util::to_number(value, what);
    } else if (key == "min_compute") {
      spec.min_compute = util::to_number(value, what);
    } else {
      throw ConfigError("checkpoint spec: unknown key '" + key + "'");
    }
  }
  if (spec.mode == Mode::Interval && spec.interval <= 0.0) {
    throw ConfigError("checkpoint spec: interval must be > 0");
  }
  if (spec.bytes < 0.0) throw ConfigError("checkpoint spec: bytes must be >= 0");
  if (spec.fraction < 0.0 || spec.fraction > 1.0) {
    throw ConfigError("checkpoint spec: fraction must be in [0, 1]");
  }
  if (spec.restart_latency < 0.0) {
    throw ConfigError("checkpoint spec: restart must be >= 0");
  }
  if (spec.min_compute < 0.0) {
    throw ConfigError("checkpoint spec: min_compute must be >= 0");
  }
  return spec;
}

json::Value CheckpointSpec::to_json() const {
  json::Object o;
  o.set("mode", to_string(mode));
  o.set("interval", interval);
  o.set("bytes", bytes);
  o.set("fraction", fraction);
  o.set("restart", restart_latency);
  o.set("min_compute", min_compute);
  return json::Value(std::move(o));
}

CheckpointSpec CheckpointSpec::from_json(const json::Value& v) {
  CheckpointSpec spec;
  const std::string mode = v.get_string("mode", "none");
  if (mode == "none") {
    spec.mode = Mode::None;
  } else if (mode == "interval") {
    spec.mode = Mode::Interval;
  } else if (mode == "daly") {
    spec.mode = Mode::Daly;
  } else {
    throw ConfigError("checkpoint spec: unknown mode '" + mode + "'");
  }
  spec.interval = v.get_number("interval", 0.0);
  spec.bytes = v.get_number("bytes", 0.0);
  spec.fraction = v.get_number("fraction", 0.1);
  spec.restart_latency = v.get_number("restart", 0.0);
  spec.min_compute = v.get_number("min_compute", 0.0);
  if (spec.mode == Mode::Interval && spec.interval <= 0.0) {
    throw ConfigError("checkpoint spec: interval must be > 0");
  }
  return spec;
}

FaultModel::FaultModel(const FaultSpec& spec, std::size_t host_count)
    : spec_(spec),
      bb_rng_(util::Rng(spec.seed).fork("resil.bb")),
      pfs_rng_(util::Rng(spec.seed).fork("resil.pfs")) {
  const util::Rng base(spec.seed);
  node_rng_.reserve(host_count);
  for (std::size_t h = 0; h < host_count; ++h) {
    node_rng_.push_back(base.fork("resil.node." + std::to_string(h)));
  }
}

double FaultModel::sample_gap(util::Rng& rng, double mtbf, double shape) {
  // Weibull with shape 1 is exactly the exponential distribution, so one
  // sampler covers both spec shapes. Clamp away a measure-zero 0 draw: a
  // zero gap would schedule the next fault at the current instant forever.
  return std::max(rng.weibull_mean(shape, mtbf), mtbf * 1e-12);
}

double FaultModel::next_node_gap(std::size_t host) {
  return sample_gap(node_rng_.at(host), spec_.node_mtbf, spec_.node_shape);
}

double FaultModel::next_bb_gap() {
  return sample_gap(bb_rng_, spec_.bb_mtbf, spec_.bb_shape);
}

double FaultModel::next_pfs_gap() {
  return sample_gap(pfs_rng_, spec_.pfs_mtbf, spec_.pfs_shape);
}

json::Value RunStats::to_json() const {
  json::Object o;
  o.set("schema", "bbsim.resil.v1");
  o.set("node_crashes", node_crashes);
  o.set("node_repairs", node_repairs);
  o.set("bb_degradations", bb_degradations);
  o.set("pfs_brownouts", pfs_brownouts);
  o.set("tasks_killed", tasks_killed);
  o.set("rollbacks", rollbacks);
  o.set("files_invalidated", files_invalidated);
  o.set("restarts", restarts);
  o.set("lost_core_seconds", lost_core_seconds);
  o.set("checkpoint_core_seconds", checkpoint_core_seconds);
  o.set("rework_core_seconds", rework_core_seconds);
  o.set("wasted_core_seconds", wasted_core_seconds());
  o.set("checkpoints_taken", checkpoints_taken);
  o.set("checkpoint_bytes_written", checkpoint_bytes_written);
  o.set("checkpoint_bytes_drained", checkpoint_bytes_drained);
  o.set("checkpoint_bytes_discarded", checkpoint_bytes_discarded);
  json::Object per_task;
  for (const auto& [name, t] : tasks) {
    if (t.attempts <= 1 && t.kills == 0) continue;
    json::Object entry;
    entry.set("attempts", t.attempts);
    entry.set("kills", t.kills);
    entry.set("lost_core_seconds", t.lost_core_seconds);
    entry.set("rework_core_seconds", t.rework_core_seconds);
    entry.set("first_complete_time", t.first_complete_time);
    per_task.set(name, json::Value(std::move(entry)));
  }
  o.set("tasks", json::Value(std::move(per_task)));
  return json::Value(std::move(o));
}

}  // namespace bbsim::resil
