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

/// The instant a flow with `remaining` bytes left at `since` reaches zero
/// bytes at its current rate: `since` itself when it is done already (or
/// moves at an unlimited rate), +inf when starved. A flow is finished at
/// `now` when this, computed from its up-to-date remainder, equals `now`:
/// within tolerance, unlimited, or a residual time too small to advance
/// the clock.
double finish_instant(const FlowState& st, double remaining, sim::Time since) {
  if (remaining <= completion_tolerance(st) || st.rate == kUnlimited) return since;
  if (st.rate <= 0.0) return kUnlimited;
  return since + remaining / st.rate;
}
}  // namespace

// ------------------------------------------------------------ completion index

void FlowManager::CompletionIndex::insert(FlowId id, double at) {
  if (id >= pos_.size()) pos_.resize(id + 1);
  heap_.push_back(Entry{at, id});
  pos_[id] = heap_.size() - 1;
  sift_up(heap_.size() - 1);
}

void FlowManager::CompletionIndex::erase(FlowId id) {
  const std::size_t pos = pos_[id];
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  sift_up(pos);
  sift_down(pos_[last.id]);
}

void FlowManager::CompletionIndex::update(FlowId id, double at) {
  const std::size_t pos = pos_[id];
  heap_[pos].at = at;
  sift_up(pos);
  sift_down(pos_[id]);
}

double FlowManager::CompletionIndex::min_at() const {
  return heap_.empty() ? kUnlimited : heap_.front().at;
}

FlowId FlowManager::CompletionIndex::pop_min() {
  const FlowId id = heap_.front().id;
  erase(id);
  return id;
}

void FlowManager::CompletionIndex::place(std::size_t pos, Entry e) {
  heap_[pos] = e;
  pos_[e.id] = pos;
}

// Both sifts expect the entry at `pos` to be placed already (its slot
// points at `pos`), so an entry that does not move costs no writes.
void FlowManager::CompletionIndex::sift_up(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t start = pos;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(e.at < heap_[parent].at)) break;
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
    if (child + 1 < n && heap_[child + 1].at < heap_[child].at) ++child;
    if (!(heap_[child].at < e.at)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  if (pos != start) place(pos, e);
}

// ----------------------------------------------------------------- manager

FlowManager::FlowManager(sim::Engine& engine, const obs::Sinks& sinks)
    : engine_(engine), net_(sinks), metrics_(sinks.metrics), timeline_(sinks.timeline) {
  if (sinks.profiler != nullptr) solve_profile_ = sinks.profiler->section("flow.solve");
  if (metrics_ != nullptr) {
    transfer_hist_ = &metrics_->histogram("flow.transfer_seconds");
    settled_counter_ = &metrics_->counter("flow.flows_settled");
  }
}

void FlowManager::check_invariants() const {
  net_.check_invariants();
  BBSIM_ASSERT(index_.size() == net_.flow_count(),
               "completion index holds " + std::to_string(index_.size()) +
                   " flows, the network " + std::to_string(net_.flow_count()));
  double brute_min = kUnlimited;
  std::vector<double> load(net_.resource_count(), 0.0);
  net_.for_each_flow([&](FlowId id, const FlowState& st) {
    BBSIM_ASSERT(index_.contains(id),
                 "flow " + std::to_string(id) + " missing from the completion index");
    const Transfer& t = transfers_[id];
    const double fresh = finish_instant(st, t.remaining, t.updated);
    // Bitwise agreement is the contract: the index must hold exactly what
    // a fresh computation gives, or wake times and finished sets drift.
    BBSIM_ASSERT(index_.at(id) == fresh,  // NOLINT(bbsim-float-equality)
                 "flow " + std::to_string(id) + " indexed to finish at " +
                     std::to_string(index_.at(id)) + " s, fresh value " +
                     std::to_string(fresh) + " s");
    brute_min = std::min(brute_min, fresh);
    if (st.rate == kUnlimited) return;
    for (const ResourceId r : st.spec.path) load[r] += st.rate;
  });
  BBSIM_ASSERT(index_.min_at() == brute_min,  // NOLINT(bbsim-float-equality)
               "completion index minimum " + std::to_string(index_.min_at()) +
                   " s, brute-force minimum " + std::to_string(brute_min) + " s");
  // The solver sums rates in freezing order, the walk above in storage
  // order: they agree to rounding.
  for (ResourceId r = 0; r < net_.resource_count(); ++r) {
    const double ledger = r < ledger_.size() ? ledger_[r].load : 0.0;
    BBSIM_ASSERT(std::fabs(ledger - load[r]) <= 1e-9 * std::max(1.0, load[r]),
                 "resource '" + net_.resource(r).name + "' ledger load " +
                     std::to_string(ledger) + " B/s, its flows' rates sum to " +
                     std::to_string(load[r]) + " B/s");
  }
}

FlowId FlowManager::start(FlowSpec spec, CompletionHandler on_complete) {
  advance();
  const sim::Time now = engine_.now();
  const FlowId id = net_.add_flow(std::move(spec));
  if (id >= transfers_.size()) transfers_.resize(id + 1);
  const FlowState& st = net_.flow(id);
  transfers_[id] = Transfer{std::move(on_complete), st.spec.volume, now, now};
  index_.insert(id, finish_instant(st, st.spec.volume, now));
  if (timeline_ != nullptr) timeline_->flow_begin(id, now, st.spec.label, st.spec.volume);
  reschedule();
  return id;
}

std::optional<double> FlowManager::cancel(FlowId id) {
  if (!net_.has_flow(id)) return std::nullopt;
  advance();
  const FlowState& st = net_.flow(id);
  const double moved = std::max(0.0, st.spec.volume - remaining_at(id, st, engine_.now()));
  net_.remove_flow(id);
  index_.erase(id);
  transfers_[id].on_complete = nullptr;
  if (timeline_ != nullptr) timeline_->flow_end(id, engine_.now(), false);
  reschedule();
  return moved;
}

void FlowManager::set_capacity(ResourceId id, double capacity) {
  advance();
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

double FlowManager::remaining_at(FlowId id, const FlowState& st, sim::Time now) {
  ++flows_settled_;
  if (settled_counter_ != nullptr) settled_counter_->add(1.0);
  const Transfer& t = transfers_[id];
  const double rate = (st.rate == kUnlimited) ? 0.0 : st.rate;
  const double moved = std::min(t.remaining, rate * (now - t.updated));
  return moved > 0.0 ? std::max(0.0, t.remaining - moved) : t.remaining;
}

void FlowManager::post(ResourceId r, sim::Time now) {
  Ledger& l = ledger_[r];
  const double dt = now - l.since;
  l.since = now;
  if (l.load <= 0.0 || dt <= 0.0) return;
  Resource& res = net_.resource(r);
  res.bytes_served += l.load * dt;
  res.busy_time += dt;
}

void FlowManager::advance() {
  const sim::Time now = engine_.now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0) return;
  const auto load = [this](ResourceId r) {
    return r < ledger_.size() ? ledger_[r].load : 0.0;
  };

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
      util_series_[r]->sample(now, load(r) / cap, dt);
    }
  }

  // Achieved bandwidth per registered group over this interval: the summed
  // allocated rate of the flows that moved, i.e. bytes moved / dt up to
  // completion-tolerance residues -- the time-resolved per-storage
  // throughput the paper's Figure 9 plots.
  for (BandwidthGroup& g : bandwidth_groups_) {
    if (g.series == nullptr && timeline_ == nullptr) continue;
    double bandwidth = 0.0;
    for (const ResourceId r : g.resources) bandwidth += load(r);
    if (g.series != nullptr) g.series->sample(now, bandwidth, dt);
    if (timeline_ != nullptr) timeline_->counter_sample(g.track, now, bandwidth);
  }
}

void FlowManager::reschedule() {
  if (wake_scheduled_) {
    engine_.cancel(wake_event_);
    wake_scheduled_ = false;
  }
  const sim::Time now = engine_.now();
  if (ledger_.size() < net_.resource_count()) ledger_.resize(net_.resource_count());
  if (net_.flow_count() == 0) {
    // Nothing runs until the next solve: close every open ledger interval.
    for (const ResourceId r : busy_) {
      post(r, now);
      ledger_[r].load = 0.0;
      ledger_[r].listed = false;
    }
    busy_.clear();
    return;
  }

  {
    const trace::ScopedTimer timer(solve_profile_);
    // The closure's flows are brought up to date at their old rates before
    // the solve replaces them.
    net_.solve([&](FlowId id, const FlowState& st) {
      Transfer& t = transfers_[id];
      t.remaining = remaining_at(id, st, now);
      t.updated = now;
    });
  }
  // Only the closure's resources can have a new summed rate: close their
  // ledger interval at the old one and open the next at the new one.
  net_.for_each_resolved_load([&](ResourceId r, double load) {
    post(r, now);
    Ledger& l = ledger_[r];
    l.load = load;
    if (load > 0.0 && !l.listed) {
      l.listed = true;
      busy_.push_back(r);
    }
  });
  // Only re-solved flows can have a new rate: refresh their index entries
  // and publish their rates as change points of their spans (flow_rate
  // dedups unchanged rates, so a stable allocation costs one point).
  net_.for_each_resolved([&](FlowId id, const FlowState& st) {
    index_.update(id, finish_instant(st, transfers_[id].remaining, now));
    if (timeline_ != nullptr) timeline_->flow_rate(id, now, st.rate);
  });

  // The instant the earliest flow reaches zero bytes.
  const double wake = index_.min_at();
  if (wake == kUnlimited) return;  // everything starved (all-zero capacity)
  wake_event_ = engine_.schedule_at(wake, [this] { on_wake(); });
  wake_scheduled_ = true;
}

void FlowManager::on_wake() {
  wake_scheduled_ = false;
  advance();

  // Collect finished flows first, then remove, then invoke callbacks: a
  // callback may start new flows or abort others, so the network must be in
  // a consistent state before user code runs. Flows are tested in index
  // order with their remainders brought up to now: every flow due by its
  // key, and after those every flow that finishes by the eager rule, up to
  // the first that does not. The rule's exact == is the point: it asks
  // whether the residual time is an ulp no-op on the clock. A due flow
  // that rounding left short of the rule is re-keyed past now. Sorting by
  // the network's creation stamp keeps removals and callbacks in creation
  // order.
  const sim::Time now = engine_.now();
  done_.clear();
  while (!index_.empty()) {
    const FlowId id = index_.min_id();
    const FlowState& st = net_.flow(id);
    const double left = remaining_at(id, st, now);
    const double at = finish_instant(st, left, now);
    if (at == now) {  // NOLINT(bbsim-float-equality)
      index_.pop_min();
      done_.push_back(id);
    } else if (index_.min_at() <= now) {
      transfers_[id].remaining = left;
      transfers_[id].updated = now;
      index_.update(id, at);
    } else {
      break;
    }
  }
  std::ranges::sort(done_, {}, [this](FlowId id) { return net_.stamp(id); });

  std::vector<CompletionHandler> callbacks;
  callbacks.reserve(done_.size());
  for (const FlowId id : done_) {
    net_.remove_flow(id);
    callbacks.push_back(std::exchange(transfers_[id].on_complete, nullptr));
    if (timeline_ != nullptr) timeline_->flow_end(id, now, true);
    if (transfer_hist_ != nullptr) transfer_hist_->record(now - transfers_[id].started);
  }

  reschedule();

  for (CompletionHandler& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace bbsim::flow
