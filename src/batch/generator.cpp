#include "batch/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bbsim::batch {

using util::ConfigError;

// Runtime distribution (seconds): log-normal, truncated to the range.
constexpr double kRuntimeMean = 600.0;
constexpr double kRuntimeSigma = 1.2;
constexpr double kRuntimeMin = 30.0;
constexpr double kRuntimeMax = 14400.0;
// BB demand of the jobs that are not hogs: none, or a modest log-normal.
constexpr double kBbNoneFraction = 0.3;  ///< jobs with no BB reservation at all
constexpr double kBbMeanBytes = 400e9;   ///< log-normal mean of the modest majority
constexpr double kBbSigma = 1.0;

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::Poisson: return "poisson";
    case ArrivalProcess::Weibull: return "weibull";
  }
  return "poisson";
}

ArrivalProcess arrival_process_from_string(const std::string& text) {
  if (text == "poisson") return ArrivalProcess::Poisson;
  if (text == "weibull") return ArrivalProcess::Weibull;
  throw ConfigError("unknown arrival process '" + text + "' (expected poisson|weibull)");
}

JobStream make_stream(const StreamConfig& config) {
  if (config.job_count == 0) throw ConfigError("stream generator: job_count must be >= 1");
  if (config.machine_nodes < 1) throw ConfigError("stream generator: machine_nodes must be >= 1");
  // Written so that NaN fails every check.
  if (!(config.machine_bb_bytes > 0)) {
    throw ConfigError("stream generator: machine_bb_bytes must be positive");
  }
  if (!(config.load > 0 && std::isfinite(config.load))) {
    throw ConfigError("stream generator: load must be positive and finite");
  }
  if (!(config.estimate_factor >= 1.0)) {
    throw ConfigError("stream generator: estimate_factor must be >= 1");
  }
  if (config.arrivals == ArrivalProcess::Weibull && !(config.weibull_shape > 0)) {
    throw ConfigError("stream generator: weibull_shape must be positive");
  }
  if (config.max_job_nodes < 1 || config.max_job_nodes > config.machine_nodes) {
    throw ConfigError("stream generator: max_job_nodes must be in [1, machine_nodes]");
  }

  // Independent sub-streams per dimension: adding a knob to one dimension
  // never perturbs the draws of another.
  util::Rng size_rng = util::Rng(config.seed).fork("sizes");
  util::Rng bb_rng = util::Rng(config.seed).fork("bb");
  util::Rng arrival_rng = util::Rng(config.seed).fork("arrivals");

  JobStream stream;
  stream.name = config.name;
  stream.seed = config.seed;
  stream.jobs.reserve(config.job_count);

  // Pass 1: sizes. Node counts are log2-heavy (many 1-node jobs, few big
  // ones); runtimes log-normal truncated; estimates overshoot uniformly.
  const int max_log2 =
      static_cast<int>(std::floor(std::log2(static_cast<double>(config.max_job_nodes))));
  double total_node_seconds = 0.0;
  for (std::size_t i = 0; i < config.job_count; ++i) {
    Job job;
    job.id = i;
    job.name = "job" + std::to_string(i);
    job.nodes = 1 << size_rng.uniform_int(0, max_log2);
    job.walltime_actual = std::clamp(
        size_rng.lognormal_mean(kRuntimeMean, kRuntimeSigma), kRuntimeMin, kRuntimeMax);
    job.walltime_estimate =
        job.walltime_actual * size_rng.uniform(1.0, config.estimate_factor);

    // BB demand: none / modest log-normal / hog slice of the machine.
    if (bb_rng.chance(kBbNoneFraction)) {
      job.bb_bytes = 0.0;
    } else if (bb_rng.chance(config.bb_hog_fraction)) {
      job.bb_bytes = std::min(
          config.machine_bb_bytes,
          bb_rng.lognormal_mean(config.bb_hog_share * config.machine_bb_bytes, 0.3));
    } else {
      job.bb_bytes = std::min(config.machine_bb_bytes,
                              bb_rng.lognormal_mean(kBbMeanBytes, kBbSigma));
    }

    total_node_seconds += static_cast<double>(job.nodes) * job.walltime_actual;
    stream.jobs.push_back(std::move(job));
  }

  // Pass 2: arrivals. The horizon that makes the offered work equal
  // `load` x machine capacity fixes the mean gap.
  const double horizon =
      total_node_seconds / (static_cast<double>(config.machine_nodes) * config.load);
  const double mean_gap = horizon / static_cast<double>(config.job_count);
  double t = 0.0;
  for (Job& job : stream.jobs) {
    job.submit = t;
    const double gap = config.arrivals == ArrivalProcess::Poisson
                           ? arrival_rng.exponential(mean_gap)
                           : arrival_rng.weibull_mean(config.weibull_shape, mean_gap);
    t += gap;
  }

  validate_stream(stream, config.machine_nodes, config.machine_bb_bytes);
  return stream;
}

}  // namespace bbsim::batch
