/// \file
/// bbsim::obs -- the observer bundle: every opt-in instrument one simulation
/// stack carries, in one place.
///
/// Each layer receives the bundle exactly once, in its constructor, before
/// the first event: sim::Engine and flow::FlowManager / flow::Network
/// through platform::Fabric, the storage services through the fabric they
/// run on. A layer resolves what it publishes at that point (cached
/// Counter* / ProfileSection* / track ids) and keeps only those, so a null
/// field costs one pointer test per hooked operation and nothing else.
///
/// The bundle owns nothing. Its owner (exec::Simulation) builds the
/// instruments before the layers and destroys them after.
#pragma once

namespace bbsim::stats {
class MetricsRegistry;
}  // namespace bbsim::stats

namespace bbsim::trace {
class Profiler;
class TimelineRecorder;
}  // namespace bbsim::trace

namespace bbsim::sim {
class EngineObserver;
}  // namespace bbsim::sim

namespace bbsim::flow {
class SolveObserver;
}  // namespace bbsim::flow

namespace bbsim::storage {
class StorageObserver;
}  // namespace bbsim::storage

namespace bbsim::obs {

/// Non-owning, nullable pointers to the instruments of one run.
struct Sinks {
  stats::MetricsRegistry* metrics = nullptr;    ///< counters, gauges, series
  trace::TimelineRecorder* timeline = nullptr;  ///< spans and counter tracks
  trace::Profiler* profiler = nullptr;          ///< wall-clock sections
  // Audit probes (src/audit/probes.hpp).
  sim::EngineObserver* engine_observer = nullptr;    ///< event lifecycle
  storage::StorageObserver* storage_observer = nullptr;  ///< occupancy, replicas
  flow::SolveObserver* solve_observer = nullptr;     ///< max-min certificate
};

}  // namespace bbsim::obs
