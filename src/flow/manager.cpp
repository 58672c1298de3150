#include "flow/manager.hpp"

#include <algorithm>
#include <cmath>

#include "trace/profiler.hpp"
#include "trace/timeline.hpp"

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
}  // namespace

FlowManager::FlowManager(sim::Engine& engine, const obs::Sinks& sinks)
    : engine_(engine), net_(sinks), metrics_(sinks.metrics), timeline_(sinks.timeline) {
  if (sinks.profiler != nullptr) solve_profile_ = sinks.profiler->section("flow.solve");
  if (metrics_ != nullptr) transfer_hist_ = &metrics_->histogram("flow.transfer_seconds");
}

FlowId FlowManager::start(FlowSpec spec, CompletionHandler on_complete) {
  settle();
  const FlowId id = net_.add_flow(std::move(spec));
  handlers_.emplace(id, std::move(on_complete));
  if (timeline_ != nullptr) {
    const FlowState& st = net_.flow(id);
    timeline_->flow_begin(id, engine_.now(), st.spec.label, st.spec.volume);
  }
  if (transfer_hist_ != nullptr) flow_started_.emplace(id, engine_.now());
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
  handlers_.erase(id);
  if (timeline_ != nullptr) timeline_->flow_end(id, engine_.now(), false);
  flow_started_.erase(id);
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

  net_.for_each_flow([&](FlowId id, const FlowState& st) {
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
      net_.consume(id, moved);
    } else if (rate > 0.0 || st.rate == kUnlimited) {
      for (const ResourceId r : st.spec.path) {
        if (res_busy_[r] == 0) touched_.push_back(r);
        res_busy_[r] = 1;
      }
    }
  });
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
  if (timeline_ != nullptr) {
    // Publish each flow's freshly allocated rate as a change point of its
    // span (flow_rate dedups unchanged rates, so a stable allocation
    // costs one point, not one per solve).
    const sim::Time now = engine_.now();
    net_.for_each_flow([&](FlowId id, const FlowState& st) {
      timeline_->flow_rate(id, now, st.rate);
    });
  }

  // Earliest completion among active flows.
  double horizon = kUnlimited;
  net_.for_each_flow([&horizon](FlowId, const FlowState& st) {
    double eta;
    if (st.remaining <= completion_tolerance(st) || st.rate == kUnlimited) {
      eta = 0.0;
    } else if (st.rate <= 0.0) {
      return;  // starved flow: waits for capacity to free up
    } else {
      eta = st.remaining / st.rate;
    }
    horizon = std::min(horizon, eta);
  });
  if (horizon == kUnlimited) return;  // everything starved (all-zero capacity)
  // Clamp sub-resolution horizons: if now + horizon does not advance the
  // clock, fire now and let the completion tolerance finish those flows.
  // The exact == probes ulp behaviour on purpose; an epsilon would defeat it.
  if (engine_.now() + horizon == engine_.now()) horizon = 0.0;  // NOLINT(bbsim-float-equality)

  wake_event_ = engine_.schedule_in(horizon, [this] { on_wake(); });
  wake_scheduled_ = true;
}

void FlowManager::on_wake() {
  wake_scheduled_ = false;
  settle();

  // Collect finished flows first, then remove, then invoke callbacks: a
  // callback may start new flows or abort others, so the network must be in
  // a consistent state before user code runs.
  done_.clear();
  net_.for_each_flow([this](FlowId id, const FlowState& st) {
    const bool finished =
        st.remaining <= completion_tolerance(st) || st.rate == kUnlimited ||
        // Residual too small to ever advance the clock again (exact == is
        // the point: it asks whether the addition is an ulp no-op).
        (st.rate > 0.0 &&
         engine_.now() + st.remaining / st.rate == engine_.now());  // NOLINT(bbsim-float-equality)
    if (finished) done_.push_back(id);
  });

  std::vector<CompletionHandler> callbacks;
  callbacks.reserve(done_.size());
  for (const FlowId id : done_) {
    net_.remove_flow(id);
    auto it = handlers_.find(id);
    callbacks.push_back(std::move(it->second));
    handlers_.erase(it);
    if (timeline_ != nullptr) timeline_->flow_end(id, engine_.now(), true);
    if (transfer_hist_ != nullptr) {
      const auto started = flow_started_.find(id);
      if (started != flow_started_.end()) {
        transfer_hist_->record(engine_.now() - started->second);
        flow_started_.erase(started);
      }
    }
  }

  reschedule();

  for (CompletionHandler& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace bbsim::flow
