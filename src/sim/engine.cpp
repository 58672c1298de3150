#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "stats/metrics.hpp"
#include "trace/profiler.hpp"
#include "trace/timeline.hpp"

namespace bbsim::sim {

Engine::Engine(const obs::Sinks& sinks)
    : observer_(sinks.engine_observer), timeline_(sinks.timeline) {
  if (sinks.metrics != nullptr) {
    events_scheduled_ = &sinks.metrics->counter("sim.events_scheduled");
    events_executed_ = &sinks.metrics->counter("sim.events_executed");
    events_cancelled_ = &sinks.metrics->counter("sim.events_cancelled");
    queue_depth_ = &sinks.metrics->gauge("sim.queue_depth");
  }
  if (timeline_ != nullptr) {
    queue_track_ = timeline_->counter_track("sim.queue_depth", "events");
  }
  if (sinks.profiler != nullptr) dispatch_profile_ = sinks.profiler->section("sim.dispatch");
}

void Engine::check_time(const char* op, Time t) const {
  // Finiteness first: NaN compares false with everything, so a past-time
  // check alone would blame NaN on "the past" instead of naming it.
  if (!std::isfinite(t)) {
    if (std::isnan(t)) {
      throw util::InvariantError(std::string(op) + ": time is NaN (now=" +
                                 std::to_string(now_) + ")");
    }
    throw util::InvariantError(std::string(op) + ": non-finite time " +
                               std::to_string(t));
  }
  if (t < now_) {
    throw util::InvariantError(std::string(op) + ": time " + std::to_string(t) +
                               " is in the past (now=" + std::to_string(now_) + ")");
  }
}

EventId Engine::schedule_at(Time t, EventHandler fn) {
  check_time("schedule_at", t);
  const EventId id = next_id_++;
  queue_.push_back(EventRecord{t, id});
  std::push_heap(queue_.begin(), queue_.end(), EventRecord::later);
  handlers_.emplace(id, std::move(fn));
  if (observer_ != nullptr) observer_->on_scheduled(id, now_, t);
  if (events_scheduled_ != nullptr) {
    events_scheduled_->add(1.0);
    queue_depth_->set(static_cast<double>(pending_count()));
  }
  if (timeline_ != nullptr) {
    timeline_->counter_sample(queue_track_, now_,
                              static_cast<double>(pending_count()));
  }
  return id;
}

bool Engine::cancel(EventId id) {
  if (handlers_.count(id) == 0) return false;
  handlers_.erase(id);
  ++tombstones_;
  // Compact once tombstones dominate the queue, so cancel-heavy phases
  // (e.g. every flow completion cancelling the manager's wake event) keep
  // the stored size proportional to the live size. The +64 slack keeps
  // small queues from compacting on every other cancellation.
  if (tombstones_ > handlers_.size() + 64) {
    std::erase_if(queue_, [this](const EventRecord& r) {
      return handlers_.count(r.id) == 0;
    });
    std::make_heap(queue_.begin(), queue_.end(), EventRecord::later);
    tombstones_ = 0;
  }
  if (observer_ != nullptr) observer_->on_cancelled(id);
  if (events_cancelled_ != nullptr) {
    events_cancelled_->add(1.0);
    queue_depth_->set(static_cast<double>(pending_count()));
  }
  if (timeline_ != nullptr) {
    timeline_->counter_sample(queue_track_, now_,
                              static_cast<double>(pending_count()));
  }
  return true;
}

const Engine::EventRecord* Engine::next_live() {
  while (!queue_.empty() && handlers_.count(queue_.front().id) == 0) {
    pop_top();
    if (tombstones_ > 0) --tombstones_;  // lazily discarded cancellation
  }
  return queue_.empty() ? nullptr : &queue_.front();
}

Engine::EventRecord Engine::pop_top() {
  std::pop_heap(queue_.begin(), queue_.end(), EventRecord::later);
  const EventRecord r = queue_.back();
  queue_.pop_back();
  return r;
}

void Engine::execute(const EventRecord& r) {
  now_ = r.time;
  // Move the handler out before invoking: the callback may schedule or
  // cancel other events, mutating handlers_.
  auto it = handlers_.find(r.id);
  EventHandler fn = std::move(it->second);
  handlers_.erase(it);
  ++executed_;
  if (observer_ != nullptr) observer_->on_executed(r.id, r.time);
  if (events_executed_ != nullptr) {
    events_executed_->add(1.0);
    queue_depth_->set(static_cast<double>(pending_count()));
  }
  if (timeline_ != nullptr) {
    timeline_->counter_sample(queue_track_, now_,
                              static_cast<double>(pending_count()));
  }
  {
    const trace::ScopedTimer timer(dispatch_profile_);
    fn();
  }
}

bool Engine::step() {
  if (next_live() == nullptr) return false;
  execute(pop_top());
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

bool Engine::run_until(Time t) {
  check_time("run_until", t);
  const EventRecord* next = next_live();
  while (next != nullptr && next->time <= t) {
    execute(pop_top());
    next = next_live();
  }
  now_ = t;
  return next != nullptr;
}

}  // namespace bbsim::sim
