#include "model/calibration.hpp"

#include "util/error.hpp"

namespace bbsim::model {

using util::InvariantError;

double amdahl_time(double t_seq, int cores, double alpha) {
  if (cores < 1) throw InvariantError("amdahl_time: cores must be >= 1");
  if (alpha < 0 || alpha > 1) throw InvariantError("amdahl_time: alpha must be in [0,1]");
  if (t_seq < 0) throw InvariantError("amdahl_time: negative time");
  return alpha * t_seq + (1.0 - alpha) * t_seq / cores;
}

double amdahl_speedup(int cores, double alpha) {
  return 1.0 / (alpha + (1.0 - alpha) / cores);
}

double compute_time_from_observed(double observed_time, double lambda_io) {
  if (lambda_io < 0 || lambda_io > 1) {
    throw InvariantError("lambda_io must be in [0,1]");
  }
  if (observed_time < 0) throw InvariantError("negative observed time");
  return (1.0 - lambda_io) * observed_time;
}

double sequential_compute_time(double observed_time, double lambda_io, int cores,
                               double alpha) {
  if (cores < 1) throw InvariantError("cores must be >= 1");
  if (alpha < 0 || alpha > 1) throw InvariantError("alpha must be in [0,1]");
  return compute_time_from_observed(observed_time, lambda_io) /
         (alpha + (1.0 - alpha) / cores);
}

double sequential_compute_time_perfect(double observed_time, double lambda_io,
                                       int cores) {
  return sequential_compute_time(observed_time, lambda_io, cores, 0.0);
}

std::size_t calibrate_workflow(wf::Workflow& workflow,
                               const std::map<std::string, TaskObservation>& by_type,
                               double reference_core_speed) {
  if (reference_core_speed <= 0) {
    throw InvariantError("reference core speed must be > 0");
  }
  std::size_t calibrated = 0;
  for (wf::TaskId id = 0; id < workflow.task_count(); ++id) {
    wf::Task& t = workflow.task_mut(id);
    const auto it = by_type.find(t.type);
    if (it == by_type.end()) continue;
    const TaskObservation& obs = it->second;
    const double t_c1 = sequential_compute_time(obs.observed_time, obs.lambda_io,
                                                obs.observed_cores, obs.alpha);
    t.flops = t_c1 * reference_core_speed;
    t.alpha = obs.alpha;
    ++calibrated;
  }
  return calibrated;
}

}  // namespace bbsim::model
