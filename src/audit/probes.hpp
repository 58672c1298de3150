/// \file
/// bbsim::audit -- layer probes: the observers that hook the auditor into
/// the engine, the flow solver and the storage services.
///
/// Each probe implements one layer's observer interface and translates what
/// it sees into Auditor violations:
///
///   EngineProbe   event-clock monotonicity and event lifecycle legality
///                 (an executed event must have been scheduled, must not
///                 fire twice, and must not run before its predecessor);
///   StorageProbe  byte conservation per file (every replica's size must
///                 match the workflow's declared file size), capacity
///                 discipline (occupancy never above capacity) and
///                 allocation/release balance (a shadow ledger re-derives
///                 occupancy from the event stream and must agree with the
///                 service's own accounting, exactly at end of run);
///   SolveProbe    the exact max-min certificate (audit_flow_network) for
///                 every converged solve of the flow network, over the
///                 closure that solve re-solved.
///
/// Probes are passive: they never mutate the observed layer and never
/// throw; violations are recorded so an audited run completes and reports
/// everything at once. exec::Simulation owns them (ExecutionConfig::audit)
/// and hands them to the layers in its observer bundle (obs/sinks.hpp),
/// because the probes must outlive the run they observe.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "audit/auditor.hpp"
#include "flow/network.hpp"
#include "sim/engine.hpp"
#include "storage/service.hpp"

namespace bbsim::audit {

/// Verifies event-clock monotonicity and activity lifecycle legality.
class EngineProbe final : public sim::EngineObserver {
 public:
  explicit EngineProbe(Auditor& auditor) : auditor_(auditor) {}

  void on_scheduled(sim::EventId id, sim::Time now, sim::Time when) override;
  void on_executed(sim::EventId id, sim::Time when) override;
  void on_cancelled(sim::EventId id) override;

  std::size_t live_events() const { return live_.size(); }

 private:
  Auditor& auditor_;
  double last_executed_ = 0.0;
  bool any_executed_ = false;
  std::unordered_set<sim::EventId> live_;  ///< scheduled, not yet fired/cancelled
};

/// Verifies storage byte conservation, capacity and allocation balance.
class StorageProbe final : public storage::StorageObserver {
 public:
  /// `now` supplies the simulated clock for violation timestamps.
  StorageProbe(Auditor& auditor, std::function<double()> now)
      : auditor_(auditor), now_(std::move(now)) {}

  /// Declare a file's true size (from the workflow) under its key; replicas
  /// of the file must match it wherever they land. Keys never declared are
  /// skipped by the conservation check.
  void set_expected_size(const storage::FileRef& file);

  void on_occupancy_change(const storage::StorageService& svc, storage::FileKey file,
                           double delta, double used_after) override;
  void on_replica_created(const storage::StorageService& svc,
                          const storage::FileRef& file) override;
  void on_replica_erased(const storage::StorageService& svc, storage::FileKey file,
                         double size) override;

  /// End-of-run balance: for every observed service, the shadow ledger,
  /// the service's own used_bytes() and the sum of replica sizes must all
  /// agree -- every byte reserved was either released or became a replica.
  void finalize();

 private:
  /// A declared file: its name (for violation subjects) and true size.
  struct Expected {
    std::string name;
    double size = 0.0;
  };

  Auditor& auditor_;
  std::function<double()> now_;
  std::vector<std::optional<Expected>> expected_;  ///< by FileKey
  /// Shadow occupancy per service, re-derived from the deltas alone.
  std::map<const storage::StorageService*, double> ledger_;
  double time() const { return now_ ? now_() : kPostRun; }
  /// nullptr when `file` was never declared.
  const Expected* expected(storage::FileKey file) const {
    return file < expected_.size() && expected_[file] ? &*expected_[file] : nullptr;
  }
  /// A declared file's quoted name, else its key (checkpoint images).
  std::string describe(storage::FileKey file) const;
};

/// Certifies one converged max-min allocation: records kFlowOverCapacity /
/// kFlowNotMaxMin for every violated condition of Network::solve_issues()
/// within `scope` (the whole network by default).
void audit_flow_network(Auditor& auditor, const flow::Network& net, double now,
                        flow::Scope scope = flow::Scope::kNetwork,
                        double tolerance = 1e-6);

/// Runs audit_flow_network over the last solve's closure after every solve,
/// stamped with the clock. Resources outside the closure kept the members,
/// capacity and rates they were certified with, so each solve checks only
/// what it changed.
class SolveProbe final : public flow::SolveObserver {
 public:
  /// `now` supplies the simulated clock for violation timestamps.
  SolveProbe(Auditor& auditor, std::function<double()> now)
      : auditor_(auditor), now_(std::move(now)) {}

  void on_solved(const flow::Network& net, int /*rounds*/) override {
    audit_flow_network(auditor_, net, now_(), flow::Scope::kLastSolve);
  }

 private:
  Auditor& auditor_;
  std::function<double()> now_;
};

}  // namespace bbsim::audit
