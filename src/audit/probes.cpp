#include "audit/probes.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::audit {

namespace {
/// Absolute slack for double accounting comparisons: well below one byte,
/// well above accumulated rounding over millions of operations.
constexpr double kBytesTolerance = 1e-6;

bool close(double a, double b) { return std::abs(a - b) <= kBytesTolerance; }
}  // namespace

// ------------------------------------------------------------ EngineProbe

void EngineProbe::on_scheduled(sim::EventId id, sim::Time now, sim::Time when) {
  BBSIM_AUDIT_CHECK(auditor_, when >= now, Code::kClockRegression, now,
                    "event " + std::to_string(id),
                    util::format("event scheduled at %.9f, before now=%.9f", when, now));
  const bool fresh = live_.insert(id).second;
  BBSIM_AUDIT_CHECK(auditor_, fresh, Code::kEventLifecycle, now,
                    "event " + std::to_string(id),
                    "event id scheduled while still pending (id reuse)");
}

void EngineProbe::on_executed(sim::EventId id, sim::Time when) {
  if (any_executed_) {
    BBSIM_AUDIT_CHECK(auditor_, when >= last_executed_, Code::kClockRegression, when,
                      "event " + std::to_string(id),
                      util::format("event executed at %.9f after the clock reached %.9f",
                                   when, last_executed_));
  }
  any_executed_ = true;
  if (when > last_executed_) last_executed_ = when;
  const bool known = live_.erase(id) > 0;
  BBSIM_AUDIT_CHECK(auditor_, known, Code::kEventLifecycle, when,
                    "event " + std::to_string(id),
                    "executed event was never scheduled (or fired twice)");
}

void EngineProbe::on_cancelled(sim::EventId id) {
  const bool known = live_.erase(id) > 0;
  BBSIM_AUDIT_CHECK(auditor_, known, Code::kEventLifecycle, last_executed_,
                    "event " + std::to_string(id),
                    "cancelled event was never scheduled (or already fired)");
}

// ----------------------------------------------------------- StorageProbe

void StorageProbe::set_expected_size(const storage::FileRef& file) {
  if (file.key >= expected_.size()) expected_.resize(std::size_t{file.key} + 1);
  expected_[file.key] = Expected{std::string(file.name), file.size};
}

std::string StorageProbe::describe(storage::FileKey file) const {
  const Expected* want = expected(file);
  return want != nullptr ? "'" + want->name + "'" : "file key " + std::to_string(file);
}

void StorageProbe::on_occupancy_change(const storage::StorageService& svc,
                                       storage::FileKey file, double delta,
                                       double used_after) {
  double& shadow = ledger_[&svc];
  shadow += delta;
  BBSIM_AUDIT_CHECK(auditor_, close(shadow, used_after), Code::kAllocationImbalance,
                    time(), svc.name(),
                    util::format("occupancy ledger diverged on %s: service says %.3f, "
                                 "event deltas sum to %.3f",
                                 describe(file).c_str(), used_after, shadow));
  // Track the service's own accounting from here on; one divergence should
  // produce one violation, not one per subsequent operation.
  shadow = used_after;
  const double cap = svc.total_capacity();
  BBSIM_AUDIT_CHECK(auditor_,
                    cap == platform::kUnlimited || used_after <= cap + kBytesTolerance,
                    Code::kCapacityExceeded, time(), svc.name(),
                    util::format("occupancy %.0f bytes exceeds capacity %.0f", used_after,
                                 cap));
}

void StorageProbe::on_replica_created(const storage::StorageService& svc,
                                      const storage::FileRef& file) {
  ledger_.emplace(&svc, svc.used_bytes());  // observe services even without deltas
  const Expected* want = expected(file.key);
  if (want == nullptr) return;
  BBSIM_AUDIT_CHECK(auditor_, close(file.size, want->size), Code::kByteConservation,
                    time(), want->name,
                    util::format("replica on '%s' holds %.3f bytes of a %.3f-byte file",
                                 svc.name().c_str(), file.size, want->size));
}

void StorageProbe::on_replica_erased(const storage::StorageService& svc,
                                     storage::FileKey file, double size) {
  const Expected* want = expected(file);
  if (want == nullptr) return;
  BBSIM_AUDIT_CHECK(auditor_, close(size, want->size), Code::kByteConservation, time(),
                    want->name,
                    util::format("erase on '%s' released %.3f bytes of a %.3f-byte file",
                                 svc.name().c_str(), size, want->size));
}

void StorageProbe::finalize() {
  for (const auto& [svc, shadow] : ledger_) {
    BBSIM_AUDIT_CHECK(auditor_, close(shadow, svc->used_bytes()),
                      Code::kAllocationImbalance, kPostRun, svc->name(),
                      util::format("final occupancy %.3f disagrees with the event "
                                   "ledger %.3f",
                                   svc->used_bytes(), shadow));
    BBSIM_AUDIT_CHECK(auditor_, close(svc->used_bytes(), svc->replica_bytes()),
                      Code::kAllocationImbalance, kPostRun, svc->name(),
                      util::format("allocation/release imbalance: %.3f bytes reserved "
                                   "but replicas hold %.3f (leaked reservation?)",
                                   svc->used_bytes(), svc->replica_bytes()));
  }
}

// ------------------------------------------------------------ flow audit

void audit_flow_network(Auditor& auditor, const flow::Network& net, double now,
                        flow::Scope scope, double tolerance) {
  for (const flow::SolveIssue& issue : net.solve_issues(scope, tolerance)) {
    const Code code = issue.kind == flow::SolveIssue::Kind::kOverCapacity
                          ? Code::kFlowOverCapacity
                          : Code::kFlowNotMaxMin;
    auditor.report(code, now, issue.subject, issue.what);
  }
}

}  // namespace bbsim::audit
