// bbsim -- data placement policies: which files live in the burst buffer.
//
// The paper sweeps the fraction of input files staged into the BB and the
// tier holding intermediate files (Figures 4, 5, 10, 13). Its stated future
// direction is exploring the heuristic space of placement policies; the
// extra policies here (size threshold, locality, bandwidth-aware greedy)
// implement that exploration (see examples/placement_heuristics.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workflow/workflow.hpp"

namespace bbsim::exec {

/// Storage tier for a file.
enum class Tier { PFS, BurstBuffer };

const char* to_string(Tier tier);

/// Strategy interface: selects the input files to stage into the BB and the
/// tier of every produced file. Files and tasks are the workflow's ids.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;

  /// Workflow input files to stage into the BB, in stage-in order.
  virtual std::vector<wf::FileId> files_to_stage(const wf::Workflow& w) const = 0;

  /// Tier for output `file` of `task`. The engine may demote BB choices to
  /// the PFS when the file would be unreachable (node-local devices).
  virtual Tier place_output(const wf::Workflow& w, wf::TaskId task,
                            wf::FileId file) const = 0;
};

/// The paper's experimental knob: stage the first ceil(fraction * N) input
/// files; put intermediates on `intermediate_tier` and final outputs on
/// `output_tier` (final products conventionally land on the PFS).
class FractionPolicy final : public PlacementPolicy {
 public:
  FractionPolicy(double input_fraction, Tier intermediate_tier,
                 Tier output_tier = Tier::PFS);
  std::string name() const override;
  std::vector<wf::FileId> files_to_stage(const wf::Workflow& w) const override;
  Tier place_output(const wf::Workflow& w, wf::TaskId task,
                    wf::FileId file) const override;

  double input_fraction() const { return fraction_; }

 private:
  double fraction_;
  Tier intermediate_tier_;
  Tier output_tier_;
};

/// Everything on the PFS (the paper's baseline scenario).
std::shared_ptr<PlacementPolicy> all_pfs_policy();

/// All inputs staged, intermediates in the BB, final outputs on the PFS.
std::shared_ptr<PlacementPolicy> all_bb_policy();

/// Files with size <= threshold go to the BB (small files benefit most from
/// the low-latency tier); larger files stream from the PFS. `invert` flips
/// the comparison for the ablation.
class SizeThresholdPolicy final : public PlacementPolicy {
 public:
  explicit SizeThresholdPolicy(double threshold_bytes, bool invert = false);
  std::string name() const override;
  std::vector<wf::FileId> files_to_stage(const wf::Workflow& w) const override;
  Tier place_output(const wf::Workflow& w, wf::TaskId task,
                    wf::FileId file) const override;

 private:
  double threshold_;
  bool invert_;
  bool prefers_bb(double size) const;
};

/// Producer-consumer locality: intermediates with a single consumer go to
/// the BB (they stay on one node's pipeline); widely shared files go to the
/// PFS. Inputs consumed by a single task are staged.
class LocalityPolicy final : public PlacementPolicy {
 public:
  explicit LocalityPolicy(std::size_t max_consumers_for_bb = 1);
  std::string name() const override;
  std::vector<wf::FileId> files_to_stage(const wf::Workflow& w) const override;
  Tier place_output(const wf::Workflow& w, wf::TaskId task,
                    wf::FileId file) const override;

 private:
  std::size_t max_consumers_;
};

/// Bandwidth-aware greedy: stage inputs by descending (size * consumers)
/// -- the bytes the BB will actually serve -- until a byte budget is
/// exhausted. Intermediates go to the BB while the budget allows.
class GreedyBytesPolicy final : public PlacementPolicy {
 public:
  explicit GreedyBytesPolicy(double byte_budget);
  std::string name() const override;
  std::vector<wf::FileId> files_to_stage(const wf::Workflow& w) const override;
  Tier place_output(const wf::Workflow& w, wf::TaskId task,
                    wf::FileId file) const override;

 private:
  double budget_;
};

/// Builds a placement policy from its spec: all_pfs | all_bb |
/// fraction:<0..1> | size:<BYTES> | size_inv:<BYTES> | locality |
/// greedy:<BYTES>, BYTES with optional unit suffix (64MB). The grammar of
/// bbsim_run --policy, sweep specs and fuzzcase files. Throws ConfigError.
std::shared_ptr<PlacementPolicy> make_policy(const std::string& spec);

}  // namespace bbsim::exec
