/// \file
/// bbsim::fuzz -- one differential-testing scenario: a platform, a workflow
/// and an execution config, fully value-semantic and JSON round-trippable
/// (schema `bbsim.fuzzcase.v1`) so every fuzz-found divergence can be
/// checked into tests/corpus/ and replayed forever.
#pragma once

#include <memory>
#include <string>

#include "exec/engine.hpp"
#include "json/json.hpp"
#include "oracle/replay.hpp"
#include "platform/spec.hpp"
#include "util/rng.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::fuzz {

inline constexpr const char* kFuzzcaseSchema = "bbsim.fuzzcase.v1";

/// The execution knobs a scenario pins down. The placement policy is kept
/// as its CLI-style spec string (all_pfs | all_bb | fraction:<f> |
/// size:<bytes> | size_inv:<bytes> | locality | greedy:<bytes>) so it
/// serialises losslessly.
struct ScenarioConfig {
  std::string placement_spec = "all_bb";
  exec::StageInMode stage_in_mode = exec::StageInMode::Task;
  exec::SchedulerPolicy scheduler = exec::SchedulerPolicy::Fcfs;
  bool stage_out = false;
  bool bb_eviction = false;
  int stage_in_width = 1;
  int force_cores = 0;
  /// Resilience specs in their CLI grammar (resil::FaultSpec::parse /
  /// resil::CheckpointSpec::parse). Empty (the default, and what every
  /// pre-resil corpus file deserializes to) = disabled. A scenario with
  /// either spec armed is checked with the resil invariant battery instead
  /// of the plain engine-vs-oracle diff (the oracle models no faults).
  std::string fault_spec;
  std::string checkpoint_spec;
};

/// A complete, self-contained differential test case.
struct Scenario {
  std::string label;  ///< provenance, e.g. "seed=42 iter=17"
  platform::PlatformSpec platform;
  wf::Workflow workflow;
  ScenarioConfig config;

  /// Engine-side config (trace/metrics/audit off: the diff ignores them).
  exec::ExecutionConfig exec_config() const;
  /// Reference-side config with the same semantics.
  oracle::RefConfig ref_config() const;

  /// Serialise as a bbsim.fuzzcase.v1 document. Unlimited capacities are
  /// written as -1 (JSON has no infinity).
  json::Value to_json() const;
};

/// Parses a bbsim.fuzzcase.v1 document; throws ParseError / ConfigError on
/// malformed input (wrong schema, missing sections, invalid DAG).
Scenario scenario_from_json(const json::Value& doc);

/// Reads and parses a fuzzcase file.
Scenario scenario_from_file(const std::string& path);

/// Samples a random feasible scenario: platform dimensions and bandwidths
/// from the presets' order-of-magnitude ranges, a DAG of a random shape,
/// and a random placement/staging/scheduling config. Always satisfiable by
/// construction (task cores fit the largest host; restricted-BB scenarios
/// keep locality pinning on).
Scenario sample_scenario(util::Rng& rng);

/// sample_scenario plus a random fault/checkpoint cocktail: node crashes
/// (usually), BB degradation and PFS brownout windows (sometimes), and one
/// of no / interval / Daly checkpointing. Every cocktail carries a finite
/// horizon so faulty runs terminate.
Scenario sample_resil_scenario(util::Rng& rng);

}  // namespace bbsim::fuzz
