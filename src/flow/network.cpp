#include "flow/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ranges>

namespace bbsim::flow {

using util::InvariantError;
using util::NotFoundError;

namespace {
/// Distinguish "NaN capacity" from "negative capacity" in error messages:
/// both are rejected, but naming the actual violation makes upstream bugs
/// (uninitialised spec fields, bad arithmetic) much easier to trace.
std::string capacity_violation(double capacity) {
  return std::isnan(capacity) ? "capacity is NaN"
                              : "negative capacity " + std::to_string(capacity);
}

/// 64-bit words needed for `n` visit bits.
std::size_t words_for(std::size_t n) { return (n + 63) / 64; }

/// Sets bit `i`; returns false when it was already set.
bool set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  std::uint64_t& word = bits[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

/// Appends the indices of the set bits among the first `words` words to
/// `out` in ascending order, clearing them.
template <typename Index>
void drain_bits(std::vector<std::uint64_t>& bits, std::size_t words, std::vector<Index>& out) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    do {
      out.push_back(static_cast<Index>(w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    } while (word != 0);
  }
}
}  // namespace

Network::Network(const obs::Sinks& sinks) : solve_observer_(sinks.solve_observer) {
  if (sinks.metrics == nullptr) return;
  solve_calls_ = &sinks.metrics->counter("flow.solve_calls");
  solve_rounds_ = &sinks.metrics->counter("flow.solve_rounds");
  flows_resolved_ = &sinks.metrics->counter("flow.solve_flows_resolved");
  active_flows_ = &sinks.metrics->gauge("flow.active_flows");
  rounds_hist_ = &sinks.metrics->histogram("flow.solve_rounds_per_call");
}

ResourceId Network::add_resource(std::string name, double capacity) {
  BBSIM_ASSERT(capacity >= 0 && !std::isnan(capacity),
               "resource '" + name + "': " + capacity_violation(capacity));
  resources_.push_back(Resource{std::move(name), capacity, 0.0, 0.0});
  members_.emplace_back();
  res_dirty_.push_back(0);
  return static_cast<ResourceId>(resources_.size() - 1);
}

const Resource& Network::resource(ResourceId id) const {
  if (id >= resources_.size()) throw NotFoundError("resource id " + std::to_string(id));
  return resources_[id];
}

Resource& Network::resource(ResourceId id) {
  if (id >= resources_.size()) throw NotFoundError("resource id " + std::to_string(id));
  return resources_[id];
}

void Network::set_capacity(ResourceId id, double capacity) {
  BBSIM_ASSERT(capacity >= 0 && !std::isnan(capacity),
               "set_capacity: " + capacity_violation(capacity));
  Resource& res = resource(id);
  // Change detection between two *assigned* (never computed) values: exact
  // comparison is the intent; no-op changes leave the dirt alone.
  if (res.capacity == capacity) return;  // NOLINT(bbsim-float-equality)
  res.capacity = capacity;
  mark_resource_dirty(id);
}

void Network::mark_resource_dirty(ResourceId r) {
  if (res_dirty_[r] != 0) return;
  res_dirty_[r] = 1;
  dirty_res_.push_back(r);
}

FlowId Network::add_flow(FlowSpec spec) {
  BBSIM_ASSERT(spec.volume >= 0 && !std::isnan(spec.volume),
               "flow volume must be >= 0");
  BBSIM_ASSERT(spec.weight > 0 && !std::isnan(spec.weight),
               "flow weight must be > 0");
  BBSIM_ASSERT(spec.rate_cap > 0 && !std::isnan(spec.rate_cap),
               std::isnan(spec.rate_cap) ? "flow rate cap is NaN (must be > 0)"
                                         : "flow rate cap must be > 0");
  for (const ResourceId r : spec.path) {
    if (r >= resources_.size()) {
      throw NotFoundError("flow path resource id " + std::to_string(r));
    }
  }
  // Recycle a retired id when one is available so id_to_index_ stays bounded
  // by the concurrent-flow high-water mark (a long churny run would otherwise
  // grow it by one slot per flow ever created).
  FlowId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = next_flow_id_++;
    id_to_index_.push_back(kNoFlow);
  }
  const std::size_t idx = flows_.size();
  id_to_index_[id] = idx;
  ids_.push_back(id);

  FlowState st;
  st.spec = std::move(spec);

  FlowLinks links;
  links.stamp = next_stamp_++;
  links.member_pos.resize(st.spec.path.size());
  for (std::uint32_t k = 0; k < st.spec.path.size(); ++k) {
    const ResourceId r = st.spec.path[k];
    links.member_pos[k] = static_cast<std::uint32_t>(members_[r].size());
    members_[r].push_back(MemberRef{idx, k});
    mark_resource_dirty(r);
  }
  if (st.spec.path.empty()) dirty_flow_ids_.push_back(id);

  flows_.push_back(std::move(st));
  links_.push_back(std::move(links));
  if (active_flows_ != nullptr) active_flows_->set(static_cast<double>(flows_.size()));
  return id;
}

std::size_t Network::checked_index(FlowId id) const {
  const std::size_t i = index_of(id);
  if (i == kNoFlow) throw NotFoundError("flow id " + std::to_string(id));
  return i;
}

void Network::remove_flow(FlowId id) {
  const std::size_t i = checked_index(id);

  // Detach from every resource's member list (swap-remove, fixing the moved
  // entry's back-pointer) and dirty the resources the flow leaves behind.
  const FlowState& st = flows_[i];
  const FlowLinks& links = links_[i];
  for (std::uint32_t k = 0; k < st.spec.path.size(); ++k) {
    const ResourceId r = st.spec.path[k];
    std::vector<MemberRef>& mem = members_[r];
    const std::uint32_t pos = links.member_pos[k];
    const MemberRef moved = mem.back();
    mem[pos] = moved;
    mem.pop_back();
    if (moved.flow != i || moved.slot != k) {
      links_[moved.flow].member_pos[moved.slot] = pos;
    }
    mark_resource_dirty(r);
  }

  const std::size_t last = flows_.size() - 1;
  if (i != last) {  // swap-remove, fixing the moved flow's index everywhere
    flows_[i] = std::move(flows_[last]);
    links_[i] = std::move(links_[last]);
    ids_[i] = ids_[last];
    id_to_index_[ids_[i]] = i;
    for (std::uint32_t k = 0; k < flows_[i].spec.path.size(); ++k) {
      members_[flows_[i].spec.path[k]][links_[i].member_pos[k]].flow = i;
    }
  }
  flows_.pop_back();
  links_.pop_back();
  ids_.pop_back();
  id_to_index_[id] = kNoFlow;
  free_ids_.push_back(id);
  if (active_flows_ != nullptr) active_flows_->set(static_cast<double>(flows_.size()));
}

const FlowState& Network::flow(FlowId id) const { return flows_[checked_index(id)]; }

std::vector<FlowId> Network::flow_ids() const {
  std::vector<FlowId> out(ids_);
  std::ranges::sort(out, {}, [this](FlowId id) { return stamp(id); });
  return out;
}

void Network::build_closure() {
  const std::size_t n = flows_.size();
  const std::size_t m = resources_.size();

  // Arena growth (amortised; steady state resizes nothing).
  if (frozen_.size() < n) frozen_.resize(n, 0);
  if (frozen_load_.size() < m) frozen_load_.resize(m, 0.0);
  if (unfrozen_weight_.size() < m) unfrozen_weight_.resize(m, 0.0);

  closure_flows_.clear();
  closure_res_.clear();

  if (!incremental_ || !solved_once_) {
    // Full solve: every flow and resource is in scope.
    for (std::size_t f = 0; f < n; ++f) closure_flows_.push_back(f);
    for (ResourceId r = 0; r < m; ++r) closure_res_.push_back(r);
    return;
  }

  if (flow_seen_.size() < words_for(n)) flow_seen_.resize(words_for(n), 0);
  if (res_seen_.size() < words_for(m)) res_seen_.resize(words_for(m), 0);
  // closure_res_ is the search queue first, in discovery order; both lists
  // are read back from the visit bits afterwards.
  const auto visit_path = [this](std::size_t f) {
    for (const ResourceId r : flows_[f].spec.path) {
      if (set_bit(res_seen_, r)) closure_res_.push_back(r);
    }
  };

  // Seed: resources whose member set or capacity changed, plus flows
  // dirtied directly (pathless adds never reach a resource).
  for (const ResourceId r : dirty_res_) {
    if (set_bit(res_seen_, r)) closure_res_.push_back(r);
  }
  for (const FlowId id : dirty_flow_ids_) {
    const std::size_t f = index_of(id);
    if (f != kNoFlow && set_bit(flow_seen_, f)) visit_path(f);
  }

  // BFS over the flow/resource bipartite graph: a dirty resource pulls in
  // its member flows, each flow pulls in the rest of its path, until the
  // affected bottleneck-connected components are fully enclosed.
  for (std::size_t qi = 0; qi < closure_res_.size(); ++qi) {
    for (const MemberRef& e : members_[closure_res_[qi]]) {
      if (set_bit(flow_seen_, e.flow)) visit_path(e.flow);
    }
  }

  // Enumeration order inside the water-filling loops must match the full
  // solver's (ascending index) so the two modes freeze ties identically:
  // reading the visit bits word by word gives it without a sort.
  closure_res_.clear();
  drain_bits(flow_seen_, words_for(n), closure_flows_);
  drain_bits(res_seen_, words_for(m), closure_res_);
}

void Network::open_closure() {
  if (solve_calls_ != nullptr) solve_calls_->add(1.0);

  build_closure();
  // Dirt is consumed by this solve, whatever its scope.
  for (const ResourceId r : dirty_res_) res_dirty_[r] = 0;
  dirty_res_.clear();
  dirty_flow_ids_.clear();
  solved_once_ = true;
}

int Network::solve_open_closure() {
  const int rounds = solve_closure();

  if (solve_rounds_ != nullptr) solve_rounds_->add(static_cast<double>(rounds));
  if (flows_resolved_ != nullptr) {
    flows_resolved_->add(static_cast<double>(closure_flows_.size()));
  }
  if (rounds_hist_ != nullptr) rounds_hist_->record(static_cast<double>(rounds));
  if (solve_observer_ != nullptr) solve_observer_->on_solved(*this, rounds);
  return rounds;
}

int Network::solve_closure() {
  // Water-filling state, restricted to the closure. `frozen_load_[r]` is the
  // sum of already-frozen closure rates on r (clean flows never cross a
  // closure resource: the closure encloses whole components); unfrozen
  // weights are recomputed exactly each round -- an incremental
  // decrement-and-clamp loses weight to floating-point cancellation (a
  // resource could claim zero unfrozen weight while unfrozen flows still
  // cross it, poisoning the level comparison with 0/0 = NaN).
  for (const std::size_t f : closure_flows_) {
    frozen_[f] = 0;
    flows_[f].rate = 0.0;
    flows_[f].bottlenecked_by_cap = false;
  }
  for (const ResourceId r : closure_res_) frozen_load_[r] = 0.0;

  std::size_t remaining = closure_flows_.size();
  int rounds = 0;
  double level = 0.0;

  while (remaining > 0) {
    ++rounds;
    for (const ResourceId r : closure_res_) unfrozen_weight_[r] = 0.0;
    for (const std::size_t f : closure_flows_) {
      if (frozen_[f] != 0) continue;
      for (const ResourceId r : flows_[f].spec.path) {
        unfrozen_weight_[r] += flows_[f].spec.weight;
      }
    }

    // Next saturation level among closure resources.
    double next_level = kUnlimited;
    for (const ResourceId r : closure_res_) {
      if (unfrozen_weight_[r] <= 0.0) continue;
      if (resources_[r].capacity == kUnlimited) continue;
      const double lvl = (resources_[r].capacity - frozen_load_[r]) / unfrozen_weight_[r];
      next_level = std::min(next_level, std::max(lvl, 0.0));
    }
    // Next per-flow cap level.
    bool cap_binds = false;
    for (const std::size_t f : closure_flows_) {
      if (frozen_[f] != 0) continue;
      const double cap_level = flows_[f].spec.rate_cap / flows_[f].spec.weight;
      if (cap_level < next_level) {
        next_level = cap_level;
        cap_binds = true;
        // Exact tie detection on identically-computed levels: an epsilon
        // here would change which flows freeze in a round, i.e. solver
        // semantics; an ulp miss only defers the cap one round.
      } else if (cap_level == next_level &&  // NOLINT(bbsim-float-equality)
                 next_level != kUnlimited) {
        cap_binds = true;
      }
    }

    if (next_level == kUnlimited) {
      // No finite constraint anywhere: unconstrained flows get infinite rate
      // (they complete instantly; the manager treats them as zero-duration).
      for (const std::size_t f : closure_flows_) {
        if (frozen_[f] == 0) {
          flows_[f].rate = kUnlimited;
          frozen_[f] = 1;
        }
      }
      remaining = 0;
      break;
    }

    level = next_level;

    // Freeze every flow that binds at this level: flows whose cap equals the
    // level, and flows through a resource that saturates at the level.
    to_freeze_.clear();
    for (const std::size_t f : closure_flows_) {
      if (frozen_[f] != 0) continue;
      const double cap_level = flows_[f].spec.rate_cap / flows_[f].spec.weight;
      if (cap_binds && cap_level <= level + 1e-15 * std::max(1.0, level)) {
        to_freeze_.push_back(f);
        flows_[f].bottlenecked_by_cap = true;
        continue;
      }
      bool saturated = false;
      for (const ResourceId r : flows_[f].spec.path) {
        if (resources_[r].capacity == kUnlimited) continue;
        const double uw = unfrozen_weight_[r];
        if (uw <= 0.0) {
          // No unfrozen weight registered (possible only when this flow's
          // weight was absorbed in floating-point summation): never divide
          // by zero. An exhausted resource still saturates the flow.
          if (resources_[r].capacity <= frozen_load_[r]) {
            saturated = true;
            break;
          }
          continue;
        }
        const double lvl = (resources_[r].capacity - frozen_load_[r]) / uw;
        if (lvl <= level + 1e-12 * std::max(1.0, level)) {
          saturated = true;
          break;
        }
      }
      if (saturated) to_freeze_.push_back(f);
    }

    if (to_freeze_.empty()) {
      // Numerical corner: nothing bound exactly; freeze the flow with the
      // tightest constraint to guarantee progress.
      std::size_t best = kNoFlow;
      double best_lvl = kUnlimited;
      for (const std::size_t f : closure_flows_) {
        if (frozen_[f] != 0) continue;
        double lvl = flows_[f].spec.rate_cap / flows_[f].spec.weight;
        for (const ResourceId r : flows_[f].spec.path) {
          if (resources_[r].capacity == kUnlimited) continue;
          const double uw = unfrozen_weight_[r];
          if (uw <= 0.0) {  // same degenerate case as the saturation scan
            if (resources_[r].capacity <= frozen_load_[r]) lvl = 0.0;
            continue;
          }
          lvl = std::min(lvl, (resources_[r].capacity - frozen_load_[r]) / uw);
        }
        if (lvl < best_lvl) {
          best_lvl = lvl;
          best = f;
        }
      }
      if (best == kNoFlow) break;  // all remaining flows unconstrained
      to_freeze_.push_back(best);
    }

    for (const std::size_t f : to_freeze_) {
      frozen_[f] = 1;
      const double rate = std::min(level * flows_[f].spec.weight, flows_[f].spec.rate_cap);
      flows_[f].rate = std::max(rate, 0.0);
      for (const ResourceId r : flows_[f].spec.path) frozen_load_[r] += flows_[f].rate;
      --remaining;
    }
  }
  return rounds;
}

std::vector<SolveIssue> Network::solve_issues(Scope scope, double tolerance) const {
  if (scope == Scope::kLastSolve) return certify(closure_flows_, closure_res_, tolerance);
  return certify(std::views::iota(std::size_t{0}, flows_.size()),
                 std::views::iota(ResourceId{0}, static_cast<ResourceId>(resources_.size())),
                 tolerance);
}

template <typename Flows, typename Resources>
std::vector<SolveIssue> Network::certify(const Flows& flows, const Resources& res,
                                         double tolerance) const {
  std::vector<SolveIssue> issues;
  if (cert_load_.size() < resources_.size()) {
    cert_load_.resize(resources_.size(), 0.0);
    cert_top_level_.resize(resources_.size(), 0.0);
  }
  for (const ResourceId r : res) {
    cert_load_[r] = 0.0;
    cert_top_level_[r] = 0.0;
  }
  for (const std::size_t i : flows) {
    const FlowState& f = flows_[i];
    if (f.rate == kUnlimited) continue;  // zero-duration flow, no steady load
    const double level = f.rate / f.spec.weight;
    for (const ResourceId r : f.spec.path) {
      cert_load_[r] += f.rate;
      cert_top_level_[r] = std::max(cert_top_level_[r], level);
    }
  }
  const auto saturated = [&](ResourceId r) {
    return resources_[r].capacity != kUnlimited &&
           cert_load_[r] >= resources_[r].capacity * (1.0 - tolerance) - tolerance;
  };
  for (const ResourceId r : res) {
    if (resources_[r].capacity == kUnlimited) continue;
    if (cert_load_[r] > resources_[r].capacity * (1.0 + tolerance) + tolerance) {
      issues.push_back(SolveIssue{
          SolveIssue::Kind::kOverCapacity, resources_[r].name,
          "resource '" + resources_[r].name + "' over capacity: " +
              std::to_string(cert_load_[r]) + " > " +
              std::to_string(resources_[r].capacity)});
    }
  }
  // Bottleneck condition: a flow below its cap must cross a saturated
  // resource on which no other flow has a larger rate per unit of weight;
  // otherwise its rate could grow by taking only from larger flows.
  for (const std::size_t i : flows) {
    const FlowState& f = flows_[i];
    if (f.rate == kUnlimited) continue;
    if (f.rate >= f.spec.rate_cap * (1.0 - tolerance)) continue;
    const double level = f.rate / f.spec.weight;
    bool bottleneck = f.spec.path.empty();  // pathless flows must be capped
    bool any_saturated = false;
    for (const ResourceId r : f.spec.path) {
      if (!saturated(r)) continue;
      any_saturated = true;
      if (level >= cert_top_level_[r] * (1.0 - tolerance) - tolerance) {
        bottleneck = true;
        break;
      }
    }
    if (bottleneck) continue;
    issues.push_back(SolveIssue{
        SolveIssue::Kind::kNotMaxMin, "flow " + std::to_string(ids_[i]),
        any_saturated
            ? "flow is below its cap (rate=" + std::to_string(f.rate) +
                  ") and another flow has a larger rate per weight on every "
                  "saturated resource it crosses"
            : "flow has spare capacity everywhere but is not at its cap (rate=" +
                  std::to_string(f.rate) + ")"});
  }
  return issues;
}

void Network::check_invariants(double tolerance) const {
  const std::vector<SolveIssue> issues = solve_issues(Scope::kNetwork, tolerance);
  BBSIM_ASSERT(issues.empty(),
               issues.empty() ? std::string() : issues.front().what);
}

}  // namespace bbsim::flow
