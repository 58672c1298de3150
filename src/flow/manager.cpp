#include "flow/manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/profiler.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"

namespace bbsim::flow {

namespace {
/// A flow counts as finished when its residual is this small. Progress is
/// accumulated in doubles, so a volume-relative component is required: a
/// multi-MB transfer legitimately ends with an O(1e-6)-byte residue, and a
/// residue that small at multi-GB/s rates yields a completion horizon far
/// below the clock's representable resolution (the wake-up would not
/// advance time at all -- an infinite loop).
double completion_tolerance(const FlowState& st) {
  return 1e-6 + 1e-9 * st.spec.volume;
}

/// Seconds until the flow's last byte arrives at its current rate: 0 when
/// it is done already (or moves at an unlimited rate), +inf when starved.
double seconds_to_finish(const FlowState& st) {
  if (st.remaining <= completion_tolerance(st) || st.rate == kUnlimited) return 0.0;
  if (st.rate <= 0.0) return kUnlimited;
  return st.remaining / st.rate;
}
}  // namespace

// ------------------------------------------------------------ completion index

void FlowManager::CompletionIndex::insert(FlowId id, double eta) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  slots_[id].stamp = next_stamp_++;
  heap_.push_back(Entry{eta, id});
  slots_[id].pos = heap_.size() - 1;
  sift_up(heap_.size() - 1);
}

void FlowManager::CompletionIndex::erase(FlowId id) {
  const std::size_t pos = slots_[id].pos;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  sift_up(pos);
  sift_down(slots_[last.id].pos);
}

void FlowManager::CompletionIndex::update(FlowId id, double eta) {
  const std::size_t pos = slots_[id].pos;
  heap_[pos].eta = eta;
  sift_up(pos);
  sift_down(slots_[id].pos);
}

void FlowManager::CompletionIndex::heapify() {
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

double FlowManager::CompletionIndex::min_eta() const {
  return heap_.empty() ? kUnlimited : heap_.front().eta;
}

FlowId FlowManager::CompletionIndex::pop_min() {
  const FlowId id = heap_.front().id;
  erase(id);
  return id;
}

void FlowManager::CompletionIndex::place(std::size_t pos, Entry e) {
  heap_[pos] = e;
  slots_[e.id].pos = pos;
}

// Both sifts expect the entry at `pos` to be placed already (its slot
// points at `pos`), so an entry that does not move costs no writes -- the
// common case when heapify() follows a settle that kept the order.
void FlowManager::CompletionIndex::sift_up(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t start = pos;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(e.eta < heap_[parent].eta)) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  if (pos != start) place(pos, e);
}

void FlowManager::CompletionIndex::sift_down(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t start = pos;
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].eta < heap_[child].eta) ++child;
    if (!(heap_[child].eta < e.eta)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  if (pos != start) place(pos, e);
}

// ----------------------------------------------------------------- manager

FlowManager::FlowManager(sim::Engine& engine, const obs::Sinks& sinks)
    : engine_(engine), net_(sinks), metrics_(sinks.metrics), timeline_(sinks.timeline) {
  if (sinks.profiler != nullptr) solve_profile_ = sinks.profiler->section("flow.solve");
  if (metrics_ != nullptr) transfer_hist_ = &metrics_->histogram("flow.transfer_seconds");
}

void FlowManager::check_invariants() const {
  net_.check_invariants();
  BBSIM_ASSERT(index_.size() == net_.flow_count(),
               "completion index holds " + std::to_string(index_.size()) +
                   " flows, the network " + std::to_string(net_.flow_count()));
  double brute_min = kUnlimited;
  net_.for_each_flow([&](FlowId id, const FlowState& st) {
    BBSIM_ASSERT(index_.contains(id),
                 "flow " + std::to_string(id) + " missing from the completion index");
    const double fresh = seconds_to_finish(st);
    // Bitwise agreement is the contract: the index must hold exactly what
    // a fresh computation gives, or wake times and finished sets drift.
    BBSIM_ASSERT(index_.eta(id) == fresh,  // NOLINT(bbsim-float-equality)
                 "flow " + std::to_string(id) + " indexed to finish in " +
                     std::to_string(index_.eta(id)) + " s, fresh value " +
                     std::to_string(fresh) + " s");
    brute_min = std::min(brute_min, fresh);
  });
  BBSIM_ASSERT(index_.min_eta() == brute_min,  // NOLINT(bbsim-float-equality)
               "completion index minimum " + std::to_string(index_.min_eta()) +
                   " s, brute-force minimum " + std::to_string(brute_min) + " s");
}

FlowId FlowManager::start(FlowSpec spec, CompletionHandler on_complete) {
  settle();
  const FlowId id = net_.add_flow(std::move(spec));
  index_.insert(id, seconds_to_finish(net_.flow(id)));
  if (id >= handlers_.size()) {
    handlers_.resize(id + 1);
    flow_started_.resize(id + 1);
  }
  handlers_[id] = std::move(on_complete);
  flow_started_[id] = engine_.now();
  if (timeline_ != nullptr) {
    const FlowState& st = net_.flow(id);
    timeline_->flow_begin(id, engine_.now(), st.spec.label, st.spec.volume);
  }
  reschedule();
  return id;
}

bool FlowManager::abort(FlowId id) { return cancel(id).has_value(); }

std::optional<double> FlowManager::cancel(FlowId id) {
  if (!net_.has_flow(id)) return std::nullopt;
  // Settle first so the bytes moved between the last event and now land in
  // the per-resource ledger (and in this flow's progress) before removal.
  settle();
  const FlowState& st = net_.flow(id);
  const double moved = std::max(0.0, st.spec.volume - st.remaining);
  net_.remove_flow(id);
  index_.erase(id);
  handlers_[id] = nullptr;
  if (timeline_ != nullptr) timeline_->flow_end(id, engine_.now(), false);
  reschedule();
  return moved;
}

void FlowManager::set_capacity(ResourceId id, double capacity) {
  settle();
  net_.set_capacity(id, capacity);
  reschedule();
}

void FlowManager::register_bandwidth_group(const std::string& name,
                                           std::vector<ResourceId> resources) {
  BandwidthGroup g;
  g.name = name;
  g.resources = std::move(resources);
  const std::string signal = "storage." + name + ".achieved_bandwidth";
  if (metrics_ != nullptr) g.series = &metrics_->series(signal);
  if (timeline_ != nullptr) g.track = timeline_->counter_track(signal, "bytes/s");
  bandwidth_groups_.push_back(std::move(g));
}

void FlowManager::settle() {
  const sim::Time now = engine_.now();
  const double dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0) return;

  // Per-resource accounting: accumulate bytes and busy time while flows ran.
  // The scratch vectors persist across settles (entries outside touched_
  // stay zero), so the hot path allocates nothing and writes only the
  // resources active flows actually cross.
  if (res_bytes_.size() < net_.resource_count()) {
    res_bytes_.resize(net_.resource_count(), 0.0);
    res_busy_.resize(net_.resource_count(), 0);
  }
  touched_.clear();

  // The one walk per time advance: progress, and with it every flow's
  // seconds-to-finish, so the index is rebuilt in the same O(active) pass.
  net_.for_each_flow_mut([&](FlowId id, FlowState& st) {
    const double rate = (st.rate == kUnlimited) ? 0.0 : st.rate;
    const double moved = std::min(st.remaining, rate * dt);
    // res_busy_ doubles as the touched-marker: every branch that writes a
    // resource sets it, and settle() resets it with res_bytes_ below.
    if (moved > 0.0) {
      for (const ResourceId r : st.spec.path) {
        if (res_busy_[r] == 0) touched_.push_back(r);
        res_bytes_[r] += moved;
        res_busy_[r] = 1;
      }
      st.remaining = std::max(0.0, st.remaining - moved);
    } else if (rate > 0.0 || st.rate == kUnlimited) {
      for (const ResourceId r : st.spec.path) {
        if (res_busy_[r] == 0) touched_.push_back(r);
        res_busy_[r] = 1;
      }
    }
    index_.assign(id, seconds_to_finish(st));
  });
  index_.heapify();
  for (const ResourceId r : touched_) {
    net_.resource(r).bytes_served += res_bytes_[r];
    if (res_busy_[r] != 0) net_.resource(r).busy_time += dt;
  }

  if (metrics_ != nullptr) {
    if (util_series_.size() != net_.resource_count()) {
      util_series_.resize(net_.resource_count(), nullptr);
      for (ResourceId r = 0; r < net_.resource_count(); ++r) {
        util_series_[r] = &metrics_->series("flow.util." + net_.resource(r).name);
      }
    }
    // Every finite-capacity resource gets a sample each interval (including
    // zero-utilization ones) so the series' time-weighted mean stays exact.
    for (ResourceId r = 0; r < net_.resource_count(); ++r) {
      const double cap = net_.resource(r).capacity;
      if (cap <= 0.0 || cap == kUnlimited) continue;
      util_series_[r]->sample(now, res_bytes_[r] / (cap * dt), dt);
    }
  }

  // Achieved bandwidth per registered group over this settle interval
  // (bytes actually moved / dt, not the allocated rate): the time-resolved
  // per-storage throughput the paper's Figure 9 plots.
  for (BandwidthGroup& g : bandwidth_groups_) {
    if (g.series == nullptr && timeline_ == nullptr) continue;
    double bytes = 0.0;
    for (const ResourceId r : g.resources) {
      if (r < res_bytes_.size()) bytes += res_bytes_[r];
    }
    const double bandwidth = bytes / dt;
    if (g.series != nullptr) g.series->sample(now, bandwidth, dt);
    if (timeline_ != nullptr) timeline_->counter_sample(g.track, now, bandwidth);
  }

  for (const ResourceId r : touched_) {
    res_bytes_[r] = 0.0;
    res_busy_[r] = 0;
  }
}

void FlowManager::reschedule() {
  if (wake_scheduled_) {
    engine_.cancel(wake_event_);
    wake_scheduled_ = false;
  }
  if (net_.flow_count() == 0) return;

  {
    const trace::ScopedTimer timer(solve_profile_);
    net_.solve();
  }
  // Only re-solved flows can have a new rate: refresh their index entries
  // and publish their rates as change points of their spans (flow_rate
  // dedups unchanged rates, so a stable allocation costs one point).
  const sim::Time now = engine_.now();
  net_.for_each_resolved([&](FlowId id, const FlowState& st) {
    index_.update(id, seconds_to_finish(st));
    if (timeline_ != nullptr) timeline_->flow_rate(id, now, st.rate);
  });

  // Earliest completion among active flows.
  double horizon = index_.min_eta();
  if (horizon == kUnlimited) return;  // everything starved (all-zero capacity)
  // Clamp sub-resolution horizons: if now + horizon does not advance the
  // clock, fire now and let the completion tolerance finish those flows.
  // The exact == probes ulp behaviour on purpose; an epsilon would defeat it.
  if (now + horizon == now) horizon = 0.0;  // NOLINT(bbsim-float-equality)

  wake_event_ = engine_.schedule_in(horizon, [this] { on_wake(); });
  wake_scheduled_ = true;
}

void FlowManager::on_wake() {
  wake_scheduled_ = false;
  settle();

  // Collect finished flows first, then remove, then invoke callbacks: a
  // callback may start new flows or abort others, so the network must be in
  // a consistent state before user code runs. A flow is finished when its
  // residual time cannot advance the clock (exact == is the point: it asks
  // whether the addition is an ulp no-op). That holds for a prefix of the
  // index order, so the pops stop at the first flow still running; sorting
  // by creation stamp keeps removals and callbacks in creation order.
  const sim::Time now = engine_.now();
  done_.clear();
  while (!index_.empty() &&
         now + index_.min_eta() == now) {  // NOLINT(bbsim-float-equality)
    done_.push_back(index_.pop_min());
  }
  std::sort(done_.begin(), done_.end(), [this](FlowId a, FlowId b) {
    return index_.stamp(a) < index_.stamp(b);
  });

  std::vector<CompletionHandler> callbacks;
  callbacks.reserve(done_.size());
  for (const FlowId id : done_) {
    net_.remove_flow(id);
    callbacks.push_back(std::exchange(handlers_[id], nullptr));
    if (timeline_ != nullptr) timeline_->flow_end(id, engine_.now(), true);
    if (transfer_hist_ != nullptr) {
      transfer_hist_->record(engine_.now() - flow_started_[id]);
    }
  }

  reschedule();

  for (CompletionHandler& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace bbsim::flow
