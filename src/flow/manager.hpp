// bbsim -- FlowManager: binds the max-min Network to the event Engine.
//
// The manager advances flow progress between events, re-solves the rate
// allocation whenever the flow set (or a capacity) changes, and fires each
// flow's completion callback at the exact simulated time its byte count
// reaches zero. It also integrates per-resource accounting (bytes served,
// busy time) used for the achieved-bandwidth experiment (paper Figure 9).
//
// Cost per event: one settle walk over the active flows per time advance
// (progress stays eager: its per-interval rounding is what the goldens
// encode), then O(re-solved * log F) to refresh a completion index after
// each solve and O(finished * log F) to pop the flows a wake-up completes.
// The next completion instant is the index minimum, not a scan.
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
  /// (`flow.util.<resource>`, sampled at every settle point and weighted by
  /// the interval length, so the series' mean is the time-weighted
  /// utilization), a `flow.transfer_seconds` histogram of completed-flow
  /// durations, per-flow transfer spans (begin / allocated-rate changes /
  /// end) and the "flow.solve" profiler section. Producers should set
  /// FlowSpec::label when a timeline is attached.
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

  /// Abort an in-progress flow; its handler is never called.
  /// Returns false if the flow already completed.
  bool abort(FlowId id);

  /// Cancel an in-flight transfer mid-flow: progress up to the current
  /// simulated time is settled into the per-resource ledger (bytes_served /
  /// busy_time), the unmoved remainder is discarded, and the completion
  /// handler never fires. Returns the bytes that actually moved, or
  /// std::nullopt when the flow is unknown or already completed (a no-op --
  /// cancelling after the handler ran does not reopen anything). This is
  /// the primitive the resilience layer uses to kill a crashed host's I/O
  /// without losing the ledger's account of what already transferred.
  std::optional<double> cancel(FlowId id);

  /// Change a resource capacity at the current simulated time (interference
  /// injection); progress is settled first, then rates are recomputed.
  void set_capacity(ResourceId id, double capacity);

  /// Current transfer rate of an active flow (bytes/sec).
  double current_rate(FlowId id) const { return net_.flow(id).rate; }

  /// Number of in-flight flows.
  std::size_t active_count() const { return net_.flow_count(); }

  /// Re-runs the solver invariant checks and checks the completion index:
  /// every live flow's entry equals a fresh seconds-to-finish computation
  /// and the index minimum equals the brute-force minimum (test hook).
  void check_invariants() const;

  /// Declare a named group of resources whose combined throughput is one
  /// achieved-bandwidth signal (one group per storage service: its disk
  /// read + write channels). Every settle interval with dt > 0 samples
  /// `storage.<name>.achieved_bandwidth` (bytes/s, dt-weighted) into the
  /// metrics registry and, when a timeline is attached, the counter track
  /// of the same name -- the time-resolved Figure 9 signal.
  void register_bandwidth_group(const std::string& name,
                                std::vector<ResourceId> resources);

 private:
  sim::Engine& engine_;
  Network net_;
  /// Completion handler of each live flow (index = FlowId; empty once the
  /// flow ends). Ids are recycled, so like the completion index's slots
  /// this stays at the concurrent-flow high-water mark.
  std::vector<CompletionHandler> handlers_;
  sim::EventId wake_event_ = 0;
  bool wake_scheduled_ = false;
  sim::Time last_settle_ = 0.0;
  /// Per-resource settle scratch, reused across calls so the per-event cost
  /// is O(active flows + touched resources), not O(all resources) plus an
  /// allocation. Entries outside touched_ are always zero. Exception: with
  /// a metrics registry attached, utilization sampling still visits every
  /// finite-capacity resource per settle interval (the series' time-weighted
  /// mean needs a sample even at zero utilization), so that path is
  /// O(all resources).
  std::vector<double> res_bytes_;
  std::vector<char> res_busy_;
  std::vector<ResourceId> touched_;
  std::vector<FlowId> done_;  ///< completion scratch for on_wake()

  /// Indexed binary min-heap of every live flow's seconds-to-finish (0 when
  /// within tolerance or unlimited, +inf when starved, else remaining /
  /// rate), addressed by flow id. Ids are recycled, so the per-id table is
  /// bounded by the concurrent-flow high-water mark; the heap itself holds
  /// only live flows, so a bulk refresh is O(active), not O(high-water).
  class CompletionIndex {
   public:
    /// Add a flow; it takes the next creation stamp.
    void insert(FlowId id, double eta);
    void erase(FlowId id);
    /// Change one entry and restore heap order: O(log F).
    void update(FlowId id, double eta);
    /// Change one entry without restoring order; call heapify() before the
    /// next query. A bulk refresh of every entry is then O(F).
    void assign(FlowId id, double eta) { heap_[slots_[id].pos].eta = eta; }
    void heapify();

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    bool contains(FlowId id) const {
      return id < slots_.size() && slots_[id].pos < heap_.size() &&
             heap_[slots_[id].pos].id == id;
    }
    /// Smallest seconds-to-finish (+inf when empty).
    double min_eta() const;
    /// Remove the flow with the smallest seconds-to-finish and return it.
    FlowId pop_min();
    double eta(FlowId id) const { return heap_[slots_[id].pos].eta; }
    /// Creation order of flows, stable across id recycling; a removed
    /// flow keeps its stamp until its id is reused.
    std::uint64_t stamp(FlowId id) const { return slots_[id].stamp; }

   private:
    struct Entry {
      double eta = 0.0;
      FlowId id = 0;
    };
    struct Slot {
      std::size_t pos = 0;  ///< index into heap_
      std::uint64_t stamp = 0;
    };
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;  ///< index = FlowId
    std::uint64_t next_stamp_ = 0;

    void place(std::size_t pos, Entry e);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
  };
  CompletionIndex index_;
  stats::MetricsRegistry* metrics_ = nullptr;
  /// Cached per-resource utilization series (index = ResourceId); refreshed
  /// lazily when resources were added since the last settle.
  std::vector<stats::TimeSeries*> util_series_;

  trace::TimelineRecorder* timeline_ = nullptr;
  trace::ProfileSection* solve_profile_ = nullptr;
  stats::Histogram* transfer_hist_ = nullptr;
  /// Start time of each live flow (index = FlowId), for the
  /// transfer-duration histogram.
  std::vector<sim::Time> flow_started_;

  struct BandwidthGroup {
    std::string name;
    std::vector<ResourceId> resources;
    stats::TimeSeries* series = nullptr;  ///< when metrics are on
    std::size_t track = 0;                ///< when a timeline is on
  };
  std::vector<BandwidthGroup> bandwidth_groups_;

  /// Apply elapsed progress since the last settle point.
  void settle();
  /// Re-solve rates and (re)schedule the next completion event.
  void reschedule();
  /// Fired at the next completion instant.
  void on_wake();
};

}  // namespace bbsim::flow
