#include "testbed/characterize.hpp"

#include <map>

#include "analysis/stats.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::testbed {

analysis::Table characterization_table(const std::vector<exec::Result>& results) {
  if (results.empty()) throw util::InvariantError("characterization: no results");
  struct Acc {
    std::vector<double> durations;
    std::vector<double> lambdas;
    double bytes = 0.0;
    double io_time = 0.0;
  };
  std::map<std::string, Acc> by_type;
  for (const exec::Result& r : results) {
    for (const auto& [_, rec] : r.tasks) {
      Acc& a = by_type[rec.type];
      a.durations.push_back(rec.duration());
      a.lambdas.push_back(rec.lambda_io());
      a.bytes += rec.bytes_read + rec.bytes_written;
      a.io_time += rec.io_time();
    }
  }
  analysis::Table t({"type", "tasks", "duration (s)", "lambda_io", "bytes/task",
                     "perceived bw"});
  for (const auto& [type, a] : by_type) {
    const analysis::Stats d = analysis::describe(a.durations);
    const analysis::Stats l = analysis::describe(a.lambdas);
    const double per_task_bytes = a.bytes / static_cast<double>(a.durations.size());
    const double bw = a.io_time > 0 ? a.bytes / a.io_time : 0.0;
    t.add_row({type, std::to_string(a.durations.size()),
               util::format("%.2f ± %.2f", d.mean, d.stddev),
               util::format("%.3f", l.mean),
               util::format_size(per_task_bytes),
               util::format_bandwidth(bw)});
  }
  return t;
}

analysis::Table storage_table(const std::vector<exec::Result>& results) {
  if (results.empty()) throw util::InvariantError("storage_table: no results");
  struct Acc {
    double bytes = 0.0;
    double busy = 0.0;
    int n = 0;
  };
  std::map<std::string, Acc> by_service;
  for (const exec::Result& r : results) {
    for (const exec::StorageCounters& s : r.storage) {
      Acc& a = by_service[s.service];
      a.bytes += s.bytes_served;
      a.busy += s.busy_time;
      ++a.n;
    }
  }
  analysis::Table t({"service", "bytes served/run", "busy time/run", "device bw"});
  for (const auto& [service, a] : by_service) {
    const double bytes = a.bytes / a.n;
    const double busy = a.busy / a.n;
    t.add_row({service, util::format_size(bytes), util::format_time(busy),
               util::format_bandwidth(busy > 0 ? bytes / busy : 0.0)});
  }
  return t;
}

std::string characterization_report(const std::vector<exec::Result>& results) {
  std::string out = "per task type:\n";
  out += characterization_table(results).to_string();
  out += "\nper storage service:\n";
  out += storage_table(results).to_string();
  return out;
}

}  // namespace bbsim::testbed
