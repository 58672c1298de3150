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

EventId Engine::make_id(std::uint64_t sequence, std::uint64_t slot) {
  constexpr std::uint64_t kSlots = std::uint64_t{1} << kSlotBits;
  if (slot >= kSlots) {
    throw util::LimitError("more than " + std::to_string(kSlots) +
                           " events pending at once");
  }
  if (sequence >= (std::uint64_t{1} << (64 - kSlotBits))) {
    throw util::LimitError("event sequence number " + std::to_string(sequence) +
                           " does not fit in an event id");
  }
  return (sequence << kSlotBits) | slot;
}

std::uint64_t Engine::slot_of(EventId id) {
  return id & ((std::uint64_t{1} << kSlotBits) - 1);
}

bool Engine::is_pending(EventId id) const {
  const std::uint64_t slot = slot_of(id);
  return id != 0 && slot < slots_.size() && slots_[slot].id == id;
}

void Engine::free_slot(std::uint64_t slot) {
  slots_[slot] = HandlerSlot{};
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
}

EventId Engine::schedule_at(Time t, EventHandler fn) {
  check_time("schedule_at", t);
  const std::uint64_t slot = free_slots_.empty() ? slots_.size() : free_slots_.back();
  const EventId id = make_id(next_sequence_, slot);
  ++next_sequence_;
  if (slot == slots_.size()) {
    slots_.push_back(HandlerSlot{id, std::move(fn)});
  } else {
    free_slots_.pop_back();
    slots_[slot] = HandlerSlot{id, std::move(fn)};
  }
  queue_.push_back(EventRecord{t, id});
  std::push_heap(queue_.begin(), queue_.end(), EventRecord::later);
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
  if (!is_pending(id)) return false;
  free_slot(slot_of(id));
  ++tombstones_;
  // Compact once tombstones dominate the queue, so cancel-heavy phases
  // (e.g. every flow completion cancelling the manager's wake event) keep
  // the stored size proportional to the live size. The +64 slack keeps
  // small queues from compacting on every other cancellation.
  if (tombstones_ > pending_count() + 64) {
    std::erase_if(queue_, [this](const EventRecord& r) { return !is_pending(r.id); });
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
  while (!queue_.empty() && !is_pending(queue_.front().id)) {
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
  // Move the handler out and free its slot before invoking: the callback
  // may schedule or cancel other events, reusing the slot or growing
  // slots_.
  const std::uint64_t slot = slot_of(r.id);
  EventHandler fn = std::move(slots_[slot].fn);
  free_slot(slot);
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
