/// \file
/// bbsim::audit -- the simulation invariant auditor: a structured collector
/// of runtime invariant violations.
///
/// The paper's claims (validation against Cori/Summit, Figures 10-11) rest
/// on the simulator being trustworthy: the engine must conserve bytes,
/// respect burst-buffer capacities, and the max-min solver must produce
/// fair-share optima. The auditor machine-checks those properties while a
/// simulation runs -- layer probes (probes.hpp) observe the event engine,
/// the flow solver and the storage services and record every violated
/// invariant here instead of aborting, so one audited run reports *all*
/// violations at once.
///
/// Violations carry a stable machine-readable Code, the simulated time of
/// detection, a subject (task/file/resource name) and a human message with
/// file:line context (see BBSIM_AUDIT_CHECK in util/error.hpp). The whole
/// report serialises as deterministic `bbsim.audit.v1` JSON, and per-code
/// counts are exported through the src/stats metrics subsystem when the
/// auditor is built with a registry.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "stats/metrics.hpp"

namespace bbsim::audit {

/// Machine-readable violation categories. The string form (to_string) is
/// part of the bbsim.audit.v1 schema -- treat it as a stable identifier.
enum class Code {
  // sim/engine: event-clock and event-lifecycle legality.
  kClockRegression,       ///< an event executed at a time before its predecessor
  kEventLifecycle,        ///< execute/cancel of an unknown or already-fired event
  // storage/*: byte conservation and capacity discipline.
  kByteConservation,      ///< a replica's size diverged from the file's true size
  kCapacityExceeded,      ///< a bounded service's occupancy exceeded its capacity
  kAllocationImbalance,   ///< occupancy accounting diverged from the event ledger
  // flow/network: max-min fairness of converged allocations.
  kFlowOverCapacity,      ///< summed flow rates exceed a resource capacity
  kFlowNotMaxMin,         ///< a flow below its cap crosses no saturated resource
  // exec/*: schedule legality of the finished run.
  kTaskLifecycle,         ///< missing/duplicate record or disordered phase times
  kPrecedence,            ///< a child task started before a parent finished
  kCoreOversubscription,  ///< concurrent tasks exceeded a host's core count
  kResultInconsistent,    ///< aggregate result fields disagree with the records
  // batch/*: multi-tenant scheduler legality (job streams over the machine).
  kJobLifecycle,          ///< a job's submit/start/end times are disordered
  kReservationImbalance,  ///< node/BB reservations diverged from the fleet ledger
  kAttributionMismatch,   ///< critpath blame classes fail to sum to the makespan
};

/// Stable snake_case identifier used in JSON and metrics names.
const char* to_string(Code code);

/// One violated invariant.
struct Violation {
  Code code = Code::kResultInconsistent;
  double time = 0.0;    ///< simulated seconds at detection (-1 = post-run)
  std::string subject;  ///< task/file/resource the violation is about
  std::string message;  ///< human-readable, with file:line context
};

/// Detection time used by post-run checks (no simulated clock anymore).
inline constexpr double kPostRun = -1.0;

/// Collects violations with exact per-code counts and a bounded stored
/// sample (counts stay exact when the buffer truncates). Thread-compatible,
/// not thread-safe: one auditor audits one simulation stack, which is
/// single-threaded by construction (sweep workers each own a private stack).
class Auditor {
 public:
  static constexpr std::size_t kDefaultMaxStored = 256;

  /// With `metrics`, violation counts are published as `audit.violations`
  /// (total, exported even when it stays zero) plus
  /// `audit.violations.<code>` per code seen.
  explicit Auditor(stats::MetricsRegistry* metrics = nullptr,
                   std::size_t max_stored = kDefaultMaxStored);

  /// Record one violation (the BBSIM_AUDIT_CHECK sink interface).
  void report(Code code, double time, std::string subject, std::string message);

  /// Total violations recorded (exact, never truncated).
  std::size_t total() const { return total_; }
  /// Violations recorded for one code (exact).
  std::size_t count(Code code) const;
  /// True when no violation has been recorded.
  bool clean() const { return total_ == 0; }

  /// Stored violations, in detection order (at most max_stored).
  const std::vector<Violation>& violations() const { return stored_; }

  /// Deterministic export:
  ///   { "schema": "bbsim.audit.v1",
  ///     "clean": bool, "total_violations": n,
  ///     "counts": {code: n, ...},            // name-sorted, exact
  ///     "violations": [{code,time,subject,message}, ...],  // bounded
  ///     "truncated": bool }
  json::Value to_json() const;

 private:
  stats::MetricsRegistry* metrics_;
  std::size_t max_stored_;
  std::vector<Violation> stored_;
  std::map<Code, std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace bbsim::audit
