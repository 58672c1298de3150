#include "audit/auditor.hpp"

namespace bbsim::audit {

const char* to_string(Code code) {
  switch (code) {
    case Code::kClockRegression: return "clock_regression";
    case Code::kEventLifecycle: return "event_lifecycle";
    case Code::kByteConservation: return "byte_conservation";
    case Code::kCapacityExceeded: return "capacity_exceeded";
    case Code::kAllocationImbalance: return "allocation_imbalance";
    case Code::kFlowOverCapacity: return "flow_over_capacity";
    case Code::kFlowNotMaxMin: return "flow_not_max_min";
    case Code::kTaskLifecycle: return "task_lifecycle";
    case Code::kPrecedence: return "precedence";
    case Code::kCoreOversubscription: return "core_oversubscription";
    case Code::kResultInconsistent: return "result_inconsistent";
    case Code::kJobLifecycle: return "job_lifecycle";
    case Code::kReservationImbalance: return "reservation_imbalance";
    case Code::kAttributionMismatch: return "attribution_mismatch";
  }
  return "unknown";
}

Auditor::Auditor(stats::MetricsRegistry* metrics, std::size_t max_stored)
    : metrics_(metrics), max_stored_(max_stored) {
  // Seed the total counter so an audited-and-clean run still exports it.
  if (metrics_ != nullptr) metrics_->counter("audit.violations");
}

void Auditor::report(Code code, double time, std::string subject, std::string message) {
  ++total_;
  ++counts_[code];
  if (metrics_ != nullptr) {
    metrics_->counter("audit.violations").add(1.0);
    metrics_->counter(std::string("audit.violations.") + to_string(code)).add(1.0);
  }
  if (stored_.size() < max_stored_) {
    stored_.push_back(Violation{code, time, std::move(subject), std::move(message)});
  }
}

std::size_t Auditor::count(Code code) const {
  const auto it = counts_.find(code);
  return it == counts_.end() ? 0 : it->second;
}

json::Value Auditor::to_json() const {
  json::Object root;
  root.set("schema", "bbsim.audit.v1");
  root.set("clean", clean());
  root.set("total_violations", total_);

  json::Object counts;
  for (const auto& [code, n] : counts_) counts.set(to_string(code), n);
  root.set("counts", json::Value(std::move(counts)));

  json::Array stored;
  for (const Violation& v : stored_) {
    json::Object o;
    o.set("code", to_string(v.code));
    o.set("time", v.time);
    o.set("subject", v.subject);
    o.set("message", v.message);
    stored.push_back(json::Value(std::move(o)));
  }
  root.set("violations", json::Value(std::move(stored)));
  root.set("truncated", stored_.size() < total_);
  return json::Value(std::move(root));
}

}  // namespace bbsim::audit
