// bbsim -- FlowManager: binds the max-min Network to the event Engine.
//
// The manager re-solves the rate allocation whenever the flow set (or a
// capacity) changes, and fires each flow's completion callback at the
// simulated time its byte count reaches zero. It also keeps the
// per-resource accounting (bytes served, busy time) used for the
// achieved-bandwidth experiment (paper Figure 9).
//
// Progress is lazy (SimGrid's lazy action management: Casanova et al.,
// JPDC 2014). A flow's remaining bytes are brought up to date, at its old
// rate and from the instant they were last updated, only when a solve's
// closure holds it (before its rate changes), when it is cancelled, or
// when a wake-up tests it. The completion index is keyed by the absolute
// instant each flow reaches zero bytes, so only the closure's entries move.
// The accounting is a per-resource ledger of the summed allocated rate,
// brought up to date only for the closure's resources at each solve and,
// when the network empties, for the resources that were busy since it last
// emptied.
//
// Cost per event: O(closure * log F) to bring the re-solved flows up to
// date and re-key them, and O(finished * log F) to pop the flows a wake-up
// completes. No step walks every active flow. With a metrics registry
// attached, utilization sampling still reads every resource's ledger per
// time advance.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "flow/network.hpp"
#include "sim/engine.hpp"

namespace bbsim::trace {
class TimelineRecorder;
struct ProfileSection;
}  // namespace bbsim::trace

namespace bbsim::flow {

/// Invoked at the simulated instant a flow's last byte arrives.
using CompletionHandler = std::function<void()>;

class FlowManager {
 public:
  /// The engine must outlive the manager. `sinks` attaches the network's
  /// instruments plus the manager's own: per-resource utilization
  /// (`flow.util.<resource>`, sampled from the ledger at every time advance
  /// and weighted by the interval length, so the series' mean is the
  /// time-weighted utilization), a `flow.transfer_seconds` histogram of
  /// completed-flow durations, the `flow.flows_settled` counter, per-flow
  /// transfer spans (begin / allocated-rate changes / end) and the
  /// "flow.solve" profiler section. Producers should set FlowSpec::label
  /// when a timeline is attached.
  explicit FlowManager(sim::Engine& engine, const obs::Sinks& sinks = {});
  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  /// Expose the underlying network for resource creation and inspection.
  Network& network() { return net_; }
  const Network& network() const { return net_; }

  /// Start a flow; `on_complete` fires when all bytes have moved.
  /// A zero-volume flow completes at the current time (via a scheduled
  /// zero-delay event, preserving run-to-completion semantics).
  FlowId start(FlowSpec spec, CompletionHandler on_complete);

  /// Cancel an in-flight transfer mid-flow: its progress is brought up to
  /// the current simulated time, the unmoved remainder is discarded, and the
  /// completion handler never fires. The bytes it moved stay in the
  /// per-resource ledger (bytes_served / busy_time). Returns the bytes that
  /// actually moved, or std::nullopt when the flow is unknown or already
  /// completed (a no-op -- cancelling after the handler ran does not reopen
  /// anything). This is the primitive the resilience layer uses to kill a
  /// crashed host's I/O without losing the ledger's account of what already
  /// transferred.
  std::optional<double> cancel(FlowId id);

  /// Change a resource capacity at the current simulated time (interference
  /// injection); rates are recomputed at once.
  void set_capacity(ResourceId id, double capacity);

  /// Current transfer rate of an active flow (bytes/sec).
  double current_rate(FlowId id) const { return net_.flow(id).rate; }

  /// Number of in-flight flows.
  std::size_t active_count() const { return net_.flow_count(); }

  /// Flows brought up to date so far (closure members at each solve,
  /// cancelled flows, flows a wake-up tested). Also published as the
  /// `flow.flows_settled` metrics counter.
  std::uint64_t flows_settled() const { return flows_settled_; }

  /// Re-runs the solver invariant checks, checks the completion index
  /// (every live flow's entry equals a fresh finish-instant computation and
  /// the index minimum equals the brute-force minimum) and checks every
  /// resource's ledger load against a fresh sum of its flows' finite rates
  /// (test hook).
  void check_invariants() const;

  /// Declare a named group of resources whose combined throughput is one
  /// achieved-bandwidth signal (one group per storage service: its disk
  /// read + write channels). Every time advance samples
  /// `storage.<name>.achieved_bandwidth` (the summed allocated rate of the
  /// group's flows over the interval, bytes/s, dt-weighted) into the
  /// metrics registry and, when a timeline is attached, the counter track
  /// of the same name -- the time-resolved Figure 9 signal.
  void register_bandwidth_group(const std::string& name,
                                std::vector<ResourceId> resources);

 private:
  sim::Engine& engine_;
  Network net_;

  /// Per live flow (index = FlowId). Ids are recycled, so like the
  /// completion index's slots this stays at the concurrent-flow high-water
  /// mark.
  struct Transfer {
    CompletionHandler on_complete;  ///< empty once the flow ends
    double remaining = 0.0;         ///< bytes left at `updated`
    sim::Time updated = 0.0;        ///< when `remaining` was last brought up to date
    sim::Time started = 0.0;        ///< for the transfer-duration histogram
  };
  std::vector<Transfer> transfers_;

  /// Per resource (index = ResourceId): the summed finite rate of its flows
  /// and the instant its bytes_served / busy_time were last brought up to
  /// date with that rate.
  struct Ledger {
    double load = 0.0;
    sim::Time since = 0.0;
    bool listed = false;  ///< in busy_
  };
  std::vector<Ledger> ledger_;
  /// Resources whose load was positive since the network last emptied.
  std::vector<ResourceId> busy_;

  sim::EventId wake_event_ = 0;
  bool wake_scheduled_ = false;
  sim::Time last_advance_ = 0.0;
  std::vector<FlowId> done_;  ///< completion scratch for on_wake()
  std::uint64_t flows_settled_ = 0;

  /// Indexed binary min-heap of every live flow's finish instant (the time
  /// it was brought up to date when within tolerance or unlimited, +inf
  /// when starved, else that time plus remaining / rate), addressed by flow
  /// id. Ids are recycled, so the per-id table is bounded by the
  /// concurrent-flow high-water mark; the heap holds only live flows.
  class CompletionIndex {
   public:
    void insert(FlowId id, double at);
    void erase(FlowId id);
    /// Change one entry and restore heap order: O(log F).
    void update(FlowId id, double at);

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    bool contains(FlowId id) const {
      return id < pos_.size() && pos_[id] < heap_.size() &&
             heap_[pos_[id]].id == id;
    }
    /// Earliest finish instant (+inf when empty) and its flow.
    double min_at() const;
    FlowId min_id() const { return heap_.front().id; }
    /// Remove the flow with the earliest finish instant and return it.
    FlowId pop_min();
    double at(FlowId id) const { return heap_[pos_[id]].at; }

   private:
    struct Entry {
      double at = 0.0;
      FlowId id = 0;
    };
    std::vector<Entry> heap_;
    std::vector<std::size_t> pos_;  ///< index = FlowId: the flow's index into heap_

    void place(std::size_t pos, Entry e);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
  };
  CompletionIndex index_;
  stats::MetricsRegistry* metrics_ = nullptr;
  stats::Counter* settled_counter_ = nullptr;
  /// Cached per-resource utilization series (index = ResourceId); refreshed
  /// lazily when resources were added since the last time advance.
  std::vector<stats::TimeSeries*> util_series_;

  trace::TimelineRecorder* timeline_ = nullptr;
  trace::ProfileSection* solve_profile_ = nullptr;
  stats::Histogram* transfer_hist_ = nullptr;

  struct BandwidthGroup {
    std::string name;
    std::vector<ResourceId> resources;
    stats::TimeSeries* series = nullptr;  ///< when metrics are on
    std::size_t track = 0;                ///< when a timeline is on
  };
  std::vector<BandwidthGroup> bandwidth_groups_;

  /// Sample utilization and achieved bandwidth over the interval since the
  /// last time advance, from the ledger's loads (which held throughout it).
  void advance();
  /// Flow `id`'s remaining bytes at `now`, at its current rate.
  double remaining_at(FlowId id, const FlowState& st, sim::Time now);
  /// Bring resource `r`'s bytes_served / busy_time up to `now` at its load.
  void post(ResourceId r, sim::Time now);
  /// Re-solve rates and (re)schedule the next completion event.
  void reschedule();
  /// Fired at the next completion instant.
  void on_wake();
};

}  // namespace bbsim::flow
