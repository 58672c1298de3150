// bbsim -- discrete-event simulation kernel.
//
// A minimal, deterministic event engine in the style of SimGrid's kernel:
// a virtual clock and a binary min-heap of timestamped events. Everything
// above (flows, storage services, the workflow engine) is driven by
// callbacks scheduled here.
//
// Determinism: the heap orders events by (time, id), and every
// schedule_at takes the next sequence number, which forms the id's high
// bits, so ties in time break in insertion order and two runs of the same
// program produce the same event interleaving.
//
// Handlers live in a vector of slots with a free list; an id's low bits
// name its slot. Cancellation is lazy: cancel() frees the slot immediately
// (so pending_count() is always the live count) and leaves a tombstone
// record in the heap, discarded when it reaches the top; when tombstones
// outnumber live events the heap is compacted in one O(stored) pass.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/sinks.hpp"
#include "util/error.hpp"

namespace bbsim::stats {
class Counter;
class Gauge;
}  // namespace bbsim::stats

namespace bbsim::trace {
struct ProfileSection;
}  // namespace bbsim::trace

namespace bbsim::sim {

/// Simulated time in seconds.
using Time = double;

/// Handle for a scheduled event, usable with Engine::cancel(). The high
/// bits are a sequence number that grows with every schedule_at, the low
/// Engine::kSlotBits bits the handler slot the event holds. Slots are
/// reused once their event fires or is cancelled; sequence numbers never
/// are, so ids grow in scheduling order and a fired or cancelled id names
/// no later event. 0 is never an id.
using EventId = std::uint64_t;

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
  /// Low bits of an EventId that hold its handler slot: at most 2^24
  /// events pending at once, and 2^40 - 1 schedule_at calls per engine.
  static constexpr unsigned kSlotBits = 24;

  /// The id of the `sequence`-th scheduled event, held in `slot`. Throws
  /// util::LimitError when either field does not fit, instead of wrapping.
  static EventId make_id(std::uint64_t sequence, std::uint64_t slot);

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
  /// Returns true if the queue still holds future events. Like
  /// schedule_at, rejects a non-finite `t` or one before now().
  bool run_until(Time t);

  /// Execute exactly one event (the earliest); returns false if none pending.
  bool step();

  /// Number of events executed so far.
  std::size_t executed_count() const { return executed_; }

  /// Number of events currently pending: the occupied handler slots.
  /// This is the *live* count -- cancelled events never appear, regardless
  /// of whether their queue tombstones have been discarded yet.
  std::size_t pending_count() const { return slots_.size() - free_slots_.size(); }

 private:
  /// One pending event. Ids grow with every schedule_at (the sequence
  /// number is in the high bits), so the id is the FIFO tie-break among
  /// equal timestamps.
  struct EventRecord {
    Time time = 0.0;
    EventId id = 0;
    /// Heap comparator: the top of queue_ is the smallest (time, id).
    static bool later(const EventRecord& a, const EventRecord& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  /// A handler slot: the pending event's id and callback, or id 0 when
  /// the slot is free.
  struct HandlerSlot {
    EventId id = 0;
    EventHandler fn;
  };

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  std::size_t executed_ = 0;
  /// Binary min-heap (std::push_heap / std::pop_heap with
  /// EventRecord::later), live records and tombstones alike.
  std::vector<EventRecord> queue_;
  /// The liveness authority: a record whose slot holds another id (or
  /// none) is a tombstone.
  std::vector<HandlerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< reusable slots, last freed on top
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

  /// Throws unless `t` is finite and not before now(); `op` names the
  /// caller in the message.
  void check_time(const char* op, Time t) const;
  /// The slot `id` names (any id, even a stale or foreign one).
  static std::uint64_t slot_of(EventId id);
  /// True when `id` names a pending event.
  bool is_pending(EventId id) const;
  /// Empties `slot`, destroying its handler, and makes it reusable.
  void free_slot(std::uint64_t slot);
  /// Discards tombstones from the top of queue_; returns the earliest live
  /// record, or nullptr when none is pending.
  const EventRecord* next_live();
  /// Removes and returns the top of queue_ (which must not be empty).
  EventRecord pop_top();
  /// Advances the clock to `r.time` and runs its handler.
  void execute(const EventRecord& r);
};

}  // namespace bbsim::sim
