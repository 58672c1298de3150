// bbsim -- discrete-event simulation kernel.
//
// A minimal, deterministic event engine in the style of SimGrid's kernel:
// a virtual clock and a calendar queue (event_queue.hpp) of timestamped
// events. Everything above (flows, storage services, the workflow engine)
// is driven by callbacks scheduled here.
//
// Determinism: ties in time are broken by insertion order (a monotonically
// increasing sequence number), so two runs of the same program produce the
// same event interleaving.
//
// Cancellation is lazy: cancel() drops the handler immediately (so
// pending_count() is always the live count) and leaves a tombstone record
// in the queue, discarded when popped; when tombstones outnumber live
// events the queue is compacted in one O(stored) pass.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/sinks.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace bbsim::stats {
class Counter;
class Gauge;
}  // namespace bbsim::stats

namespace bbsim::trace {
struct ProfileSection;
}  // namespace bbsim::trace

namespace bbsim::sim {

/// Callback invoked when an event fires. It runs at `Engine::now()` equal to
/// the event's timestamp and may schedule further events.
using EventHandler = std::function<void()>;

/// Observer of the engine's event lifecycle, for invariant auditing
/// (src/audit attaches one when auditing is on). Callbacks fire inline on
/// the simulation path; implementations must not mutate the engine.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// `when` is the event's absolute timestamp; `now` the clock at scheduling.
  virtual void on_scheduled(EventId id, Time now, Time when) = 0;
  /// Fired immediately before the handler runs, with the clock at `when`.
  virtual void on_executed(EventId id, Time when) = 0;
  /// Fired when a pending event is successfully cancelled.
  virtual void on_cancelled(EventId id) = 0;
};

/// The simulation engine: virtual clock + event queue.
///
/// Usage:
///   Engine e;
///   e.schedule_in(5.0, []{ ... });
///   e.run();
class Engine {
 public:
  /// Attaches the bundle's engine instruments: metrics (events scheduled /
  /// executed / cancelled, pending-queue high-water mark), an event-queue
  /// depth timeline track, the "sim.dispatch" profiler section and the
  /// lifecycle observer. Null fields stay off; the instruments must outlive
  /// the engine.
  explicit Engine(const obs::Sinks& sinks = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (seconds). Starts at 0.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be finite and >= now()).
  /// NaN and infinite times are rejected with an error naming the value.
  EventId schedule_at(Time t, EventHandler fn);

  /// Schedule `fn` after a delay of `dt` seconds (must be >= 0).
  EventId schedule_in(Time dt, EventHandler fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired or already-cancelled
  /// event is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// Run until the event queue is empty. Returns the final clock value.
  Time run();

  /// Process all events with timestamp <= `t`, then set the clock to `t`.
  /// Returns true if the queue still holds future events.
  bool run_until(Time t);

  /// Execute exactly one event (the earliest); returns false if none pending.
  bool step();

  /// Number of events executed so far.
  std::size_t executed_count() const { return executed_; }

  /// Number of events currently pending. This is the *live* count --
  /// cancelled events never appear, regardless of whether their queue
  /// tombstones have been discarded yet.
  std::size_t pending_count() const { return handlers_.size(); }

 private:
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t executed_ = 0;
  CalendarQueue queue_;
  std::unordered_map<EventId, EventHandler> handlers_;
  /// Cancelled records still sitting in queue_; compacted when they
  /// outnumber the live events (plus slack, so small queues never compact).
  std::size_t tombstones_ = 0;

  EngineObserver* observer_ = nullptr;

  // Optional metrics sinks (cached Counter/Gauge pointers: no map lookup on
  // the hot path).
  stats::Counter* events_scheduled_ = nullptr;
  stats::Counter* events_executed_ = nullptr;
  stats::Counter* events_cancelled_ = nullptr;
  stats::Gauge* queue_depth_ = nullptr;

  // Optional timeline sink (cached track id) and wall-clock profiler.
  trace::TimelineRecorder* timeline_ = nullptr;
  std::size_t queue_track_ = 0;
  trace::ProfileSection* dispatch_profile_ = nullptr;

  /// Pops the next live record (discarding tombstones) or returns false.
  bool pop_live(EventRecord& out);
  /// Advances the clock to `r.time` and runs its handler.
  void execute(const EventRecord& r);
};

}  // namespace bbsim::sim
