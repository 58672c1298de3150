// bbsim -- max-min fair bandwidth sharing (the SimGrid-style flow model).
//
// Every data movement in the simulator is a *flow*: an amount of bytes
// traversing a set of capacity-constrained resources (disk channels, network
// links, metadata servers). Concurrent flows share resource capacity
// according to (weighted) max-min fairness with optional per-flow rate caps,
// computed by the classic progressive-filling ("water-filling") algorithm:
//
//   raise a common water level t for all unfrozen flows;
//   a resource saturates when  frozen_rates + t * unfrozen_count == capacity;
//   a flow freezes when t reaches its rate cap;
//   freeze at the earliest such event and repeat.
//
// This is the mechanism that makes burst-buffer contention *emerge* when
// many workflow pipelines do I/O at once (paper Figures 7 and 11), instead
// of being hard-coded into task runtimes.
//
// The solver is *incremental*: add_flow / remove_flow / set_capacity mark
// the touched resources dirty, and solve() re-runs progressive filling only
// over the bottleneck-connected components reachable from the dirty set
// (a resource's member flows, those flows' other resources, and so on).
// Flows in untouched components keep their previously converged rates --
// max-min decomposes exactly across components, so the result is identical
// to a full re-solve. The closure's flows and resources are listed in
// ascending index order, as a full solve enumerates them, by reading visit
// bitsets back word by word: no sort. All per-solve scratch is
// arena-allocated on the network (visit bits, reusable vectors), so
// steady-state solves allocate nothing. solve(before) hands the closure's
// flows to the caller while they still hold their old rates, and
// for_each_resolved() / for_each_resolved_load() expose the closure's new
// rates and per-resource rate sums, so the manager brings up to date only
// the flows and resources whose rate may move.
// set_incremental(false) restores the historical solve-everything
// behaviour (the benchmark baseline and a debugging aid).
//
// Network is a pure solver over a static "current instant"; it knows nothing
// about time. FlowManager (manager.hpp) binds it to the event engine.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/sinks.hpp"
#include "stats/metrics.hpp"
#include "util/error.hpp"

namespace bbsim::flow {

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// A capacity-constrained resource (bytes/second shared by its flows).
struct Resource {
  std::string name;
  double capacity = kUnlimited;
  // --- accounting (FlowManager's ledger, see manager.hpp): up to date at
  // the resource's last rate change, and for every resource once the
  // network empties ---
  double bytes_served = 0.0;  ///< total bytes pushed through this resource
  double busy_time = 0.0;     ///< total time with at least one active flow
};

/// Parameters for a new flow.
struct FlowSpec {
  double volume = 0.0;                  ///< bytes to transfer (>= 0)
  std::vector<ResourceId> path;         ///< resources traversed (may be empty)
  double rate_cap = kUnlimited;         ///< per-flow ceiling (e.g. one POSIX stream)
  double weight = 1.0;                  ///< max-min share weight (> 0)
  /// Human-readable description for the timeline ("read f.fits pfs->host0").
  /// Empty unless timeline recording is on -- label construction costs
  /// allocations, so producers only fill it when someone will look.
  std::string label{};
};

/// Allocation state of one active flow.
struct FlowState {
  FlowSpec spec;
  double rate = 0.0;       ///< current allocation (bytes/second)
  bool bottlenecked_by_cap = false;  ///< true if the cap froze it (diagnostics)
};

/// One violated solver invariant, found by solve_issues(). `kOverCapacity`
/// means a resource's summed flow rates exceed its capacity (feasibility);
/// `kNotMaxMin` means a flow below its rate cap has no bottleneck -- no
/// saturated resource on which its rate per unit of weight is the largest
/// -- so its rate could be raised by lowering only larger flows.
struct SolveIssue {
  enum class Kind { kOverCapacity, kNotMaxMin };
  Kind kind = Kind::kOverCapacity;
  std::string subject;  ///< resource name (over-capacity) or flow id string
  std::string what;
};

/// What a certificate covers: the whole network, or only the closure the
/// last solve() re-solved (its flows and the resources they cross).
enum class Scope { kNetwork, kLastSolve };

class Network;

/// Observer of every converged solve(), for invariant auditing (src/audit
/// attaches one that certifies each allocation max-min fair). Fires inline
/// with the network and the round count; implementations must not mutate
/// the network.
class SolveObserver {
 public:
  virtual ~SolveObserver() = default;
  virtual void on_solved(const Network& net, int rounds) = 0;
};

/// The set of resources and active flows, with the max-min solver.
class Network {
 public:
  /// Attaches the bundle's solver instruments: metrics (solve calls and
  /// rounds, active-flow high-water mark, flows re-solved per call) and
  /// the solve observer. Null fields stay off.
  explicit Network(const obs::Sinks& sinks = {});

  /// Create a resource; `capacity` in bytes/second (kUnlimited allowed).
  ResourceId add_resource(std::string name, double capacity);

  std::size_t resource_count() const { return resources_.size(); }
  const Resource& resource(ResourceId id) const;
  Resource& resource(ResourceId id);

  /// Change a resource's capacity (used by interference injection). The
  /// caller is responsible for re-solving. A no-op value change does not
  /// dirty the resource.
  void set_capacity(ResourceId id, double capacity);

  /// Register a new flow. Rates are stale until solve() is called.
  FlowId add_flow(FlowSpec spec);

  /// Remove a flow (completed or aborted).
  void remove_flow(FlowId id);

  bool has_flow(FlowId id) const { return index_of(id) != kNoFlow; }
  std::size_t flow_count() const { return flows_.size(); }
  const FlowState& flow(FlowId id) const;

  /// Recompute flow rates with progressive filling. In incremental mode
  /// (the default) only the bottleneck-connected components touched since
  /// the last solve are re-solved -- O(dirty component) -- and untouched
  /// flows keep their converged rates; with set_incremental(false) every
  /// flow is re-solved from scratch, O(F * R) per freezing round. Returns
  /// the number of water-filling rounds run.
  int solve() {
    return solve([](FlowId, const FlowState&) {});
  }

  /// solve(), first calling `before(FlowId, const FlowState&)` on every flow
  /// of the closure it is about to re-solve, in index order, while each
  /// still holds its old rate. FlowManager brings those flows' progress up
  /// to date there. `before` must not change the network.
  template <typename Fn>
  int solve(Fn&& before) {
    open_closure();
    for (const std::size_t f : closure_flows_) {
      const FlowState& st = flows_[f];
      before(ids_[f], st);
    }
    return solve_open_closure();
  }

  /// Toggle incremental solving (default on). Turning it off makes every
  /// solve() a full re-solve -- the benchmark baseline.
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  /// All flow ids currently active, in creation order (deterministic):
  /// sorted by stamp(), so the order survives id recycling. A recycled id
  /// takes its *new* flow's position, not the retired flow's numeric rank.
  std::vector<FlowId> flow_ids() const;

  /// The creation stamp add_flow() gave active flow `id`: flows are stamped
  /// 0, 1, 2, ... in the order they are added, recycled ids included.
  std::uint64_t stamp(FlowId id) const { return links_[checked_index(id)].stamp; }

  /// Visit every active flow in storage order without allocating. That
  /// order is neither creation nor id order (removal swaps the last flow
  /// into the gap), so callers pair each id with its state; flow_ids()
  /// gives creation order. `fn(FlowId, const FlowState&)` must not add or
  /// remove flows.
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (std::size_t i = 0; i < flows_.size(); ++i) fn(ids_[i], flows_[i]);
  }

  /// Visit the flows the last solve() re-solved (its closure: the dirty
  /// components in incremental mode, every flow in full mode), in index
  /// order. Only these flows' rates can have changed since the solve
  /// before. Valid until the next add_flow / remove_flow.
  template <typename Fn>
  void for_each_resolved(Fn&& fn) const {
    for (const std::size_t f : closure_flows_) fn(ids_[f], flows_[f]);
  }

  /// Visit the resources the last solve() re-solved, in id order, with the
  /// summed finite rate of their flows after it (a flow crossing a resource
  /// twice counts twice). The solver forms these sums while it freezes
  /// flows; every other resource kept its sum. Valid until the next solve().
  template <typename Fn>
  void for_each_resolved_load(Fn&& fn) const {
    for (const ResourceId r : closure_res_) fn(r, frozen_load_[r]);
  }

  /// Size of the id -> index table. Bounded by the high-water mark of
  /// concurrently active flows (ids are recycled through a free-list), not
  /// by the total number of flows ever created.
  std::size_t id_table_size() const { return id_to_index_.size(); }

  // ------------------------------------------------------- invariant checks
  /// Returns every violated solver invariant within `tolerance`. The
  /// certificate is exact (the bottleneck characterization of weighted
  /// max-min fairness with caps; Bertsekas & Gallager, *Data Networks*,
  /// sec. 6.5.2): an allocation is max-min fair if and only if no
  /// resource is over capacity and every flow below its cap crosses a
  /// saturated resource on which no other flow has a larger
  /// `rate / weight`.
  ///
  /// Scope::kNetwork checks every flow and resource. Scope::kLastSolve
  /// checks only the last solve's closure, which is sound for a network
  /// that was certified clean before: a resource outside the closure has
  /// the same members, capacity and rates as at the solve that last
  /// certified it, and a closure encloses whole components. A clean check
  /// allocates nothing once the scratch has grown.
  std::vector<SolveIssue> solve_issues(Scope scope = Scope::kNetwork,
                                       double tolerance = 1e-6) const;

  /// Throwing form of solve_issues() over the whole network: raises
  /// InvariantError on the first violation. Used by tests and debug builds.
  void check_invariants(double tolerance = 1e-6) const;

 private:
  static constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);

  /// One occurrence of a flow on a resource (a flow crossing a resource
  /// twice has two entries -- it consumes a double share).
  struct MemberRef {
    std::size_t flow;    ///< index into flows_
    std::uint32_t slot;  ///< which path entry of that flow
  };

  /// Per-flow bookkeeping parallel to flows_ (swap-removed together).
  struct FlowLinks {
    std::uint64_t stamp = 0;  ///< creation order (see stamp())
    /// Position of (this flow, slot k) inside members_[spec.path[k]].
    std::vector<std::uint32_t> member_pos;
  };

  std::vector<Resource> resources_;
  std::vector<FlowId> ids_;          // parallel arrays for cache-friendly solve
  std::vector<FlowState> flows_;
  std::vector<FlowLinks> links_;     // parallel to flows_
  std::vector<std::vector<MemberRef>> members_;  // per resource: crossing flows
  std::vector<std::size_t> id_to_index_;  // FlowId -> index, kNoFlow when gone
  std::vector<FlowId> free_ids_;     // recycled ids (keeps id_to_index_ bounded)
  FlowId next_flow_id_ = 0;
  std::uint64_t next_stamp_ = 0;

  // --- dirty tracking between solves -------------------------------------
  bool incremental_ = true;
  bool solved_once_ = false;
  std::vector<char> res_dirty_;          // per resource: already in dirty_res_
  std::vector<ResourceId> dirty_res_;    // resources whose members/capacity changed
  std::vector<FlowId> dirty_flow_ids_;   // directly-dirtied flows (pathless adds)

  // --- arena-allocated solve scratch (zero steady-state allocation) ------
  std::vector<std::uint64_t> flow_seen_;      // visit bits per flow index, zero between solves
  std::vector<std::uint64_t> res_seen_;       // visit bits per resource, zero between solves
  std::vector<char> frozen_;                  // per flow index, closure only
  std::vector<double> frozen_load_;           // per resource, closure only
  std::vector<double> unfrozen_weight_;       // per resource, closure only
  std::vector<std::size_t> closure_flows_;    // flow indices, ascending
  std::vector<ResourceId> closure_res_;       // resource ids, ascending
  std::vector<std::size_t> to_freeze_;
  // Certificate scratch (per resource, within the checked scope): summed
  // rates and the largest rate / weight among the crossing flows.
  mutable std::vector<double> cert_load_;
  mutable std::vector<double> cert_top_level_;

  SolveObserver* solve_observer_ = nullptr;

  // Optional metrics sinks (cached so solve() skips the name lookups).
  stats::Counter* solve_calls_ = nullptr;
  stats::Counter* solve_rounds_ = nullptr;
  stats::Counter* flows_resolved_ = nullptr;  ///< closure sizes, accumulated
  stats::Gauge* active_flows_ = nullptr;
  stats::Histogram* rounds_hist_ = nullptr;  ///< rounds-per-solve distribution

  std::size_t index_of(FlowId id) const {
    return id < id_to_index_.size() ? id_to_index_[id] : kNoFlow;
  }
  std::size_t checked_index(FlowId id) const;

  void mark_resource_dirty(ResourceId r);
  /// First half of solve(): counts the call, builds the closure and
  /// consumes the dirt.
  void open_closure();
  /// Second half of solve(): progressive filling over the closure, then the
  /// metrics and the solve observer. Returns rounds.
  int solve_open_closure();
  /// Computes closure_flows_ / closure_res_ for this solve: everything in
  /// full mode, the dirty-component closure in incremental mode.
  void build_closure();
  /// Progressive filling restricted to the closure. Returns rounds.
  int solve_closure();
  /// The certificate of solve_issues() over `flows` (indices into flows_)
  /// and `res`, which must hold every resource those flows cross and no
  /// resource crossed by a flow outside `flows`.
  template <typename Flows, typename Resources>
  std::vector<SolveIssue> certify(const Flows& flows, const Resources& res,
                                  double tolerance) const;
};

}  // namespace bbsim::flow
