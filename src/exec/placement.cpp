#include "exec/placement.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::exec {

const char* to_string(Tier tier) {
  return tier == Tier::PFS ? "pfs" : "bb";
}

namespace {
/// True when `file` is a final product (no consumer).
bool is_final_output(const wf::Workflow& w, wf::FileId file) {
  return w.consumers(file).empty();
}
}  // namespace

// ----------------------------------------------------------- FractionPolicy

FractionPolicy::FractionPolicy(double input_fraction, Tier intermediate_tier,
                               Tier output_tier)
    : fraction_(input_fraction),
      intermediate_tier_(intermediate_tier),
      output_tier_(output_tier) {
  if (!(fraction_ >= 0.0 && fraction_ <= 1.0)) {  // NaN fails too
    throw util::ConfigError("FractionPolicy: fraction must be in [0, 1]");
  }
}

std::string FractionPolicy::name() const {
  return util::format("fraction(%.0f%%,int=%s,out=%s)", fraction_ * 100.0,
                      to_string(intermediate_tier_), to_string(output_tier_));
}

std::vector<wf::FileId> FractionPolicy::files_to_stage(const wf::Workflow& w) const {
  // Spread the selection evenly over the input list (Bresenham-style) so a
  // 50% staging fraction stages every other file rather than the first
  // half -- "a fraction of the files" should not mean "one half of the
  // workflow's pipelines".
  std::vector<wf::FileId> out;
  double accumulator = 0.0;
  for (const wf::FileId f : w.input_files()) {
    accumulator += fraction_;
    if (accumulator >= 1.0 - 1e-12) {
      accumulator -= 1.0;
      out.push_back(f);
    }
  }
  return out;
}

Tier FractionPolicy::place_output(const wf::Workflow& w, wf::TaskId,
                                  wf::FileId file) const {
  return is_final_output(w, file) ? output_tier_ : intermediate_tier_;
}

std::shared_ptr<PlacementPolicy> all_pfs_policy() {
  return std::make_shared<FractionPolicy>(0.0, Tier::PFS, Tier::PFS);
}

std::shared_ptr<PlacementPolicy> all_bb_policy() {
  return std::make_shared<FractionPolicy>(1.0, Tier::BurstBuffer, Tier::PFS);
}

// ------------------------------------------------------ SizeThresholdPolicy

SizeThresholdPolicy::SizeThresholdPolicy(double threshold_bytes, bool invert)
    : threshold_(threshold_bytes), invert_(invert) {
  if (threshold_ < 0) throw util::ConfigError("SizeThresholdPolicy: negative threshold");
}

bool SizeThresholdPolicy::prefers_bb(double size) const {
  return invert_ ? size > threshold_ : size <= threshold_;
}

std::string SizeThresholdPolicy::name() const {
  return util::format("size_threshold(%s%.0fMB)", invert_ ? ">" : "<=", threshold_ / 1e6);
}

std::vector<wf::FileId> SizeThresholdPolicy::files_to_stage(const wf::Workflow& w) const {
  std::vector<wf::FileId> out;
  for (const wf::FileId f : w.input_files()) {
    if (prefers_bb(w.file(f).size)) out.push_back(f);
  }
  return out;
}

Tier SizeThresholdPolicy::place_output(const wf::Workflow& w, wf::TaskId,
                                       wf::FileId file) const {
  if (is_final_output(w, file)) return Tier::PFS;
  return prefers_bb(w.file(file).size) ? Tier::BurstBuffer : Tier::PFS;
}

// ------------------------------------------------------------ LocalityPolicy

LocalityPolicy::LocalityPolicy(std::size_t max_consumers_for_bb)
    : max_consumers_(max_consumers_for_bb) {}

std::string LocalityPolicy::name() const {
  return util::format("locality(max_consumers=%zu)", max_consumers_);
}

std::vector<wf::FileId> LocalityPolicy::files_to_stage(const wf::Workflow& w) const {
  std::vector<wf::FileId> out;
  for (const wf::FileId f : w.input_files()) {
    if (w.consumers(f).size() <= max_consumers_) out.push_back(f);
  }
  return out;
}

Tier LocalityPolicy::place_output(const wf::Workflow& w, wf::TaskId,
                                  wf::FileId file) const {
  const std::size_t consumers = w.consumers(file).size();
  if (consumers == 0) return Tier::PFS;  // final output
  return consumers <= max_consumers_ ? Tier::BurstBuffer : Tier::PFS;
}

// --------------------------------------------------------- GreedyBytesPolicy

GreedyBytesPolicy::GreedyBytesPolicy(double byte_budget) : budget_(byte_budget) {
  if (budget_ < 0) throw util::ConfigError("GreedyBytesPolicy: negative budget");
}

std::string GreedyBytesPolicy::name() const {
  return util::format("greedy_bytes(%.1fGB)", budget_ / 1e9);
}

std::vector<wf::FileId> GreedyBytesPolicy::files_to_stage(const wf::Workflow& w) const {
  struct Candidate {
    wf::FileId file;
    double benefit;  // bytes the BB would serve: size * consumer count
    double size;
  };
  std::vector<Candidate> candidates;
  for (const wf::FileId f : w.input_files()) {
    const double size = w.file(f).size;
    candidates.push_back({f, size * static_cast<double>(w.consumers(f).size()), size});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.benefit > b.benefit;
                   });
  std::vector<wf::FileId> out;
  double used = 0;
  for (const Candidate& c : candidates) {
    if (used + c.size > budget_) continue;
    used += c.size;
    out.push_back(c.file);
  }
  return out;
}

Tier GreedyBytesPolicy::place_output(const wf::Workflow& w, wf::TaskId,
                                     wf::FileId file) const {
  if (is_final_output(w, file)) return Tier::PFS;
  // Intermediates ride the BB when small relative to the budget; the
  // engine's capacity accounting is the hard backstop.
  return w.file(file).size <= budget_ * 0.05 ? Tier::BurstBuffer : Tier::PFS;
}

std::shared_ptr<PlacementPolicy> make_policy(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
  const auto need_arg = [&](const char* what) {
    if (arg.empty()) throw util::ConfigError("policy " + kind + ":<" + what + "> needs a value");
  };
  if (kind == "all_pfs") return all_pfs_policy();
  if (kind == "all_bb") return all_bb_policy();
  if (kind == "fraction") {
    need_arg("0..1");
    return std::make_shared<FractionPolicy>(util::to_number(arg, "policy " + kind),
                                            Tier::BurstBuffer);
  }
  if (kind == "size" || kind == "size_inv") {
    need_arg("bytes");
    return std::make_shared<SizeThresholdPolicy>(util::parse_size(arg), kind == "size_inv");
  }
  if (kind == "locality") return std::make_shared<LocalityPolicy>();
  if (kind == "greedy") {
    need_arg("bytes");
    return std::make_shared<GreedyBytesPolicy>(util::parse_size(arg));
  }
  throw util::ConfigError("unknown placement policy '" + spec + "'");
}

}  // namespace bbsim::exec
