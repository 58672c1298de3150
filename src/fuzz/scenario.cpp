#include "fuzz/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "resil/fault.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workflow/random_dag.hpp"

namespace bbsim::fuzz {

using platform::kUnlimited;
using util::ParseError;

namespace {

/// JSON has no infinity; unlimited capacities round-trip as -1.
json::Value num_or_unlimited(double v) {
  return v == kUnlimited ? json::Value(-1.0) : json::Value(v);
}

double unlimited_or_num(const json::Value& v) {
  const double n = v.as_number();
  return n < 0 ? kUnlimited : n;
}

}  // namespace

exec::ExecutionConfig Scenario::exec_config() const {
  exec::ExecutionConfig cfg;
  cfg.placement = exec::make_policy(config.placement_spec);
  cfg.stage_in_mode = config.stage_in_mode;
  cfg.scheduler = config.scheduler;
  cfg.stage_out = config.stage_out;
  cfg.bb_eviction = config.bb_eviction;
  cfg.stage_in_width = config.stage_in_width;
  cfg.force_cores = config.force_cores;
  cfg.collect_trace = false;
  cfg.faults = resil::FaultSpec::parse(config.fault_spec);
  cfg.checkpoint = resil::CheckpointSpec::parse(config.checkpoint_spec);
  return cfg;
}

oracle::RefConfig Scenario::ref_config() const {
  oracle::RefConfig cfg;
  cfg.placement = exec::make_policy(config.placement_spec);
  cfg.stage_in_mode = config.stage_in_mode;
  cfg.scheduler = config.scheduler;
  cfg.stage_out = config.stage_out;
  cfg.bb_eviction = config.bb_eviction;
  cfg.stage_in_width = config.stage_in_width;
  cfg.force_cores = config.force_cores;
  return cfg;
}

json::Value Scenario::to_json() const {
  json::Object doc;
  doc.set("schema", kFuzzcaseSchema);
  doc.set("label", label);

  json::Object plat;
  plat.set("name", platform.name);
  json::Array hosts;
  for (const platform::HostSpec& h : platform.hosts) {
    json::Object o;
    o.set("name", h.name);
    o.set("cores", h.cores);
    o.set("core_speed", h.core_speed);
    o.set("nic_bw", num_or_unlimited(h.nic_bw));
    hosts.push_back(json::Value(std::move(o)));
  }
  plat.set("hosts", json::Value(std::move(hosts)));
  json::Array storage;
  for (const platform::StorageSpec& s : platform.storage) {
    json::Object o;
    o.set("name", s.name);
    o.set("kind", platform::to_string(s.kind));
    o.set("mode", platform::to_string(s.mode));
    o.set("num_nodes", s.num_nodes);
    o.set("read_bw", num_or_unlimited(s.disk.read_bw));
    o.set("write_bw", num_or_unlimited(s.disk.write_bw));
    o.set("capacity", num_or_unlimited(s.disk.capacity));
    o.set("link_bw", num_or_unlimited(s.link.bandwidth));
    o.set("link_latency", s.link.latency);
    o.set("base_latency", s.base_latency);
    o.set("stream_bw", num_or_unlimited(s.stream_bw));
    o.set("metadata_ops", num_or_unlimited(s.metadata_ops_per_sec));
    o.set("stage_latency", s.stage_latency);
    storage.push_back(json::Value(std::move(o)));
  }
  plat.set("storage", json::Value(std::move(storage)));
  doc.set("platform", json::Value(std::move(plat)));

  json::Object wfo;
  wfo.set("name", workflow.name);
  json::Array files;
  for (const wf::File& f : workflow.files()) {
    json::Object o;
    o.set("name", f.name);
    o.set("size", f.size);
    files.push_back(json::Value(std::move(o)));
  }
  wfo.set("files", json::Value(std::move(files)));
  json::Array tasks;
  for (const wf::Task& t : workflow.tasks()) {
    json::Object o;
    o.set("name", t.name);
    o.set("type", t.type);
    o.set("flops", t.flops);
    o.set("alpha", t.alpha);
    o.set("cores", t.requested_cores);
    json::Array in, out;
    for (const std::string& f : t.inputs) in.push_back(json::Value(f));
    for (const std::string& f : t.outputs) out.push_back(json::Value(f));
    o.set("inputs", json::Value(std::move(in)));
    o.set("outputs", json::Value(std::move(out)));
    tasks.push_back(json::Value(std::move(o)));
  }
  wfo.set("tasks", json::Value(std::move(tasks)));
  doc.set("workflow", json::Value(std::move(wfo)));

  json::Object cfg;
  cfg.set("placement", config.placement_spec);
  cfg.set("stage_in", exec::to_string(config.stage_in_mode));
  cfg.set("scheduler", exec::to_string(config.scheduler));
  cfg.set("stage_out", config.stage_out);
  cfg.set("bb_eviction", config.bb_eviction);
  cfg.set("stage_in_width", config.stage_in_width);
  cfg.set("force_cores", config.force_cores);
  // Written only when armed so pre-resil corpus files stay byte-stable
  // through a load/save round trip.
  if (!config.fault_spec.empty()) cfg.set("faults", config.fault_spec);
  if (!config.checkpoint_spec.empty()) cfg.set("checkpoint", config.checkpoint_spec);
  doc.set("config", json::Value(std::move(cfg)));
  return json::Value(std::move(doc));
}

Scenario scenario_from_json(const json::Value& doc) {
  const std::string schema = doc.get_string("schema", "");
  if (schema != kFuzzcaseSchema) {
    throw ParseError("fuzzcase: expected schema '" + std::string(kFuzzcaseSchema) +
                     "', got '" + schema + "'");
  }
  Scenario sc;
  sc.label = doc.get_string("label", "");

  const json::Value& plat = doc.at("platform");
  sc.platform.name = plat.get_string("name", "fuzz-platform");
  for (const json::Value& h : plat.at("hosts").as_array()) {
    platform::HostSpec hs;
    hs.name = h.at("name").as_string();
    hs.cores = static_cast<int>(h.at("cores").as_int());
    hs.core_speed = h.at("core_speed").as_number();
    hs.nic_bw = unlimited_or_num(h.at("nic_bw"));
    sc.platform.hosts.push_back(std::move(hs));
  }
  for (const json::Value& s : plat.at("storage").as_array()) {
    platform::StorageSpec ss;
    ss.name = s.at("name").as_string();
    ss.kind = platform::storage_kind_from_string(s.at("kind").as_string());
    ss.mode = platform::bb_mode_from_string(s.at("mode").as_string());
    ss.num_nodes = static_cast<int>(s.at("num_nodes").as_int());
    ss.disk.read_bw = unlimited_or_num(s.at("read_bw"));
    ss.disk.write_bw = unlimited_or_num(s.at("write_bw"));
    ss.disk.capacity = unlimited_or_num(s.at("capacity"));
    ss.link.bandwidth = unlimited_or_num(s.at("link_bw"));
    ss.link.latency = s.at("link_latency").as_number();
    ss.base_latency = s.get_number("base_latency", 0.0);
    ss.stream_bw = unlimited_or_num(s.at("stream_bw"));
    ss.metadata_ops_per_sec = unlimited_or_num(s.at("metadata_ops"));
    ss.stage_latency = s.get_number("stage_latency", 0.0);
    sc.platform.storage.push_back(std::move(ss));
  }
  sc.platform.validate_and_normalize();

  const json::Value& wfo = doc.at("workflow");
  sc.workflow.name = wfo.get_string("name", "fuzz-workflow");
  for (const json::Value& f : wfo.at("files").as_array()) {
    sc.workflow.add_file(wf::File{f.at("name").as_string(), f.at("size").as_number()});
  }
  for (const json::Value& t : wfo.at("tasks").as_array()) {
    wf::Task task;
    task.name = t.at("name").as_string();
    task.type = t.get_string("type", "generic");
    task.flops = t.at("flops").as_number();
    task.alpha = t.get_number("alpha", 0.0);
    task.requested_cores = static_cast<int>(t.get_int("cores", 1));
    for (const json::Value& f : t.at("inputs").as_array()) {
      task.inputs.push_back(f.as_string());
    }
    for (const json::Value& f : t.at("outputs").as_array()) {
      task.outputs.push_back(f.as_string());
    }
    sc.workflow.add_task(std::move(task));
  }
  sc.workflow.validate();

  const json::Value& cfg = doc.at("config");
  sc.config.placement_spec = cfg.get_string("placement", "all_bb");
  sc.config.stage_in_mode = exec::stage_in_mode_from_string(cfg.get_string("stage_in", "task"));
  sc.config.scheduler = exec::scheduler_from_string(cfg.get_string("scheduler", "fcfs"));
  sc.config.stage_out = cfg.get_bool("stage_out", false);
  sc.config.bb_eviction = cfg.get_bool("bb_eviction", false);
  sc.config.stage_in_width = static_cast<int>(cfg.get_int("stage_in_width", 1));
  sc.config.force_cores = static_cast<int>(cfg.get_int("force_cores", 0));
  sc.config.fault_spec = cfg.get_string("faults", "");
  sc.config.checkpoint_spec = cfg.get_string("checkpoint", "");
  (void)exec::make_policy(sc.config.placement_spec);  // validate early
  (void)resil::FaultSpec::parse(sc.config.fault_spec);
  (void)resil::CheckpointSpec::parse(sc.config.checkpoint_spec);
  return sc;
}

Scenario scenario_from_file(const std::string& path) {
  return scenario_from_json(json::parse_file(path));
}

// --------------------------------------------------------------- sampler

Scenario sample_scenario(util::Rng& rng) {
  Scenario sc;
  sc.platform.name = "fuzz-platform";

  // Hosts: small clusters; speeds/bandwidths within an order of magnitude
  // of the Cori/Summit presets (platform/presets.hpp).
  const int n_hosts = static_cast<int>(rng.uniform_int(1, 6));
  int max_host_cores = 0;
  for (int i = 0; i < n_hosts; ++i) {
    platform::HostSpec h;
    h.name = util::format("host%02d", i);
    h.cores = static_cast<int>(rng.uniform_int(2, 16));
    h.core_speed = rng.uniform(10e9, 50e9);
    h.nic_bw = rng.uniform(1e9, 16e9);
    max_host_cores = std::max(max_host_cores, h.cores);
    sc.platform.hosts.push_back(std::move(h));
  }

  // PFS: always present; finite bandwidths, unlimited capacity.
  {
    platform::StorageSpec pfs;
    pfs.name = "pfs";
    pfs.kind = platform::StorageKind::PFS;
    pfs.num_nodes = static_cast<int>(rng.uniform_int(1, 4));
    pfs.disk.read_bw = rng.uniform(0.5e9, 8e9);
    pfs.disk.write_bw = rng.uniform(0.5e9, 8e9);
    pfs.link.bandwidth = rng.uniform(1e9, 12e9);
    if (rng.chance(0.3)) pfs.link.latency = rng.uniform(0.0, 2e-3);
    if (rng.chance(0.2)) pfs.metadata_ops_per_sec = rng.uniform(1e3, 1e5);
    if (rng.chance(0.2)) pfs.stream_bw = rng.uniform(0.2e9, 2e9);
    sc.platform.storage.push_back(std::move(pfs));
  }

  // Burst buffer: usually present, all three architectures.
  bool restricted_bb = false;
  if (rng.chance(0.85)) {
    platform::StorageSpec bb;
    bb.name = "bb";
    const double kind_pick = rng.uniform(0.0, 1.0);
    if (kind_pick < 0.4) {
      bb.kind = platform::StorageKind::SharedBB;
      bb.mode = platform::BBMode::Striped;
      bb.num_nodes = static_cast<int>(rng.uniform_int(1, 4));
    } else if (kind_pick < 0.7) {
      bb.kind = platform::StorageKind::SharedBB;
      bb.mode = platform::BBMode::Private;
      bb.num_nodes = static_cast<int>(rng.uniform_int(1, 4));
      restricted_bb = true;
    } else {
      bb.kind = platform::StorageKind::NodeLocalBB;
      bb.num_nodes = n_hosts;  // normalized anyway
      restricted_bb = true;
    }
    bb.disk.read_bw = rng.uniform(2e9, 20e9);
    bb.disk.write_bw = rng.uniform(2e9, 20e9);
    bb.link.bandwidth = rng.uniform(2e9, 24e9);
    if (rng.chance(0.25)) bb.link.latency = rng.uniform(0.0, 1e-3);
    if (rng.chance(0.2)) bb.stage_latency = rng.uniform(0.0, 0.5);
    if (rng.chance(0.2)) bb.metadata_ops_per_sec = rng.uniform(1e3, 1e5);
    // Finite capacity ~40% of the time to exercise demotion/skip/eviction.
    if (rng.chance(0.4)) {
      bb.disk.capacity = rng.uniform(32e6, 512e6);
    }
    sc.platform.storage.push_back(std::move(bb));
  }
  sc.platform.validate_and_normalize();

  // Workflow: a random structural shape sized to stay brute-forceable.
  wf::RandomDagConfig dag;
  dag.levels = static_cast<int>(rng.uniform_int(1, 4));
  dag.min_width = 1;
  dag.max_width = static_cast<int>(rng.uniform_int(2, 7));
  dag.fan_in_probability = rng.uniform(0.2, 0.6);
  dag.min_file_size = 1e6;
  dag.max_file_size = 64e6;
  dag.min_seq_seconds = 0.2;
  dag.max_seq_seconds = 10.0;
  dag.max_requested_cores = std::min(4, max_host_cores);
  const auto shape = static_cast<wf::DagShape>(rng.uniform_int(0, 4));
  util::Rng dag_rng = rng.fork("dag");
  sc.workflow = wf::make_shaped_dag(shape, dag, dag_rng);

  // Execution config.
  const char* placements[] = {"all_bb",  "all_pfs",      "fraction:0.5", "fraction:0.25",
                              "size:8e6", "size_inv:8e6", "locality",     "greedy:128e6"};
  sc.config.placement_spec =
      placements[rng.uniform_int(0, static_cast<std::int64_t>(std::size(placements)) - 1)];
  sc.config.stage_in_mode =
      rng.chance(0.7) ? exec::StageInMode::Task : exec::StageInMode::Instant;
  const exec::SchedulerPolicy schedulers[] = {
      exec::SchedulerPolicy::Fcfs, exec::SchedulerPolicy::CriticalPathFirst,
      exec::SchedulerPolicy::LargestFirst, exec::SchedulerPolicy::SmallestFirst};
  sc.config.scheduler = schedulers[rng.uniform_int(0, 3)];
  sc.config.stage_out = rng.chance(0.3);
  sc.config.bb_eviction = rng.chance(0.3);
  sc.config.stage_in_width = static_cast<int>(rng.uniform_int(1, 3));
  sc.config.force_cores = rng.chance(0.15)
                              ? static_cast<int>(rng.uniform_int(
                                    1, std::min<std::int64_t>(4, max_host_cores)))
                              : 0;
  // An unused draw, kept so that a seed still samples the scenarios that
  // corpus files and CI campaigns were recorded with.
  if (!restricted_bb) (void)rng.chance(0.5);
  return sc;
}

Scenario sample_resil_scenario(util::Rng& rng) {
  Scenario sc = sample_scenario(rng);
  util::Rng frng = rng.fork("resil");

  std::string faults =
      util::format("seed=%llu", static_cast<unsigned long long>(
                                    frng.uniform_int(1, 1000000)));
  bool node_faults = false;
  if (frng.chance(0.8)) {
    node_faults = true;
    faults += util::format(",node_mtbf=%.1f,node_repair=%.1f",
                           frng.uniform(20.0, 300.0), frng.uniform(2.0, 30.0));
  }
  if (frng.chance(0.4)) {
    faults += util::format(",bb_mtbf=%.1f,bb_degrade=%.2f,bb_duration=%.1f",
                           frng.uniform(10.0, 120.0), frng.uniform(0.1, 0.9),
                           frng.uniform(5.0, 60.0));
  }
  if (frng.chance(0.3)) {
    faults += util::format(",pfs_mtbf=%.1f,pfs_brownout=%.2f,pfs_duration=%.1f",
                           frng.uniform(10.0, 120.0), frng.uniform(0.1, 0.9),
                           frng.uniform(5.0, 60.0));
  }
  // A finite horizon guarantees every faulty run terminates even when the
  // crash/repair cycle is faster than the longest task.
  faults += util::format(",horizon=%.1f", frng.uniform(40.0, 300.0));
  sc.config.fault_spec = faults;

  const std::int64_t ckpt = frng.uniform_int(0, 2);
  if (ckpt == 1) {
    sc.config.checkpoint_spec =
        util::format("interval=%.1f,fraction=0.2,restart=%.1f",
                     frng.uniform(2.0, 20.0), frng.uniform(0.0, 5.0));
  } else if (ckpt == 2 && node_faults) {
    // Daly needs a node MTBF to derive its interval from.
    sc.config.checkpoint_spec = "daly,fraction=0.1";
  }
  return sc;
}

}  // namespace bbsim::fuzz
