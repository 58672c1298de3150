/// \file
/// bbsim::batch -- synthetic arrival-stream generator.
///
/// Builds job streams with the statistical shape of production HPC
/// workloads (Feitelson's workload-archive regularities, the Cori traces
/// Kopanski & Rzadca replay): Poisson or bursty Weibull interarrivals,
/// log-normal runtimes, log2-heavy node counts (many small jobs, few big
/// ones), user walltime estimates that overshoot the actual runtime by a
/// uniform factor, and a burst-buffer demand mix where most jobs ask for
/// little or nothing and a "hog" minority reserves a large slice -- the
/// contention pattern that separates one scheduling policy from another.
///
/// The generator is load-targeted: per-job sizes are drawn first, then the
/// mean interarrival gap is set so the offered load (node-seconds per
/// machine-node-second) matches `load`. Deterministic for a given
/// (config, seed): streams regenerate bit-identically.
#pragma once

#include "batch/job.hpp"
#include "util/rng.hpp"

namespace bbsim::batch {

/// Interarrival-gap process.
enum class ArrivalProcess {
  Poisson,  ///< exponential gaps (memoryless)
  Weibull,  ///< Weibull gaps; shape < 1 gives bursty clumped arrivals
};

const char* to_string(ArrivalProcess process);
ArrivalProcess arrival_process_from_string(const std::string& text);

/// Knobs of the synthetic stream. Defaults model a small Cori-like
/// partition under heavy BB contention.
struct StreamConfig {
  std::string name = "synthetic";
  std::size_t job_count = 500;

  // The machine the stream targets (sizes are clamped to fit it).
  int machine_nodes = 32;
  double machine_bb_bytes = 6.4e12;  ///< one Cori DataWarp node

  /// Offered load: sum(nodes x actual runtime) over the arrival horizon,
  /// as a fraction of machine capacity. > 1 overloads the machine.
  double load = 0.85;
  ArrivalProcess arrivals = ArrivalProcess::Poisson;
  double weibull_shape = 0.6;  ///< gap shape when arrivals == Weibull

  /// Estimates overshoot: estimate = actual x uniform[1, estimate_factor].
  /// 1.0 gives exact estimates (the property-test regime).
  double estimate_factor = 3.0;

  /// Node counts: 2^uniform_int[0, log2(max_job_nodes)] -- log2-heavy.
  int max_job_nodes = 16;

  // Burst-buffer hogs (the rest of the demand mix is fixed in generator.cpp).
  double bb_hog_fraction = 0.1;   ///< jobs asking for a large slice...
  double bb_hog_share = 0.5;      ///< ...this fraction of machine BB, mean

  std::uint64_t seed = 42;
};

/// Generate the stream. Throws util::ConfigError on nonsensical knobs
/// (zero jobs, non-positive load/machine/Weibull shape). The result is
/// validated against the configured machine and sorted by (submit, id).
JobStream make_stream(const StreamConfig& config);

}  // namespace bbsim::batch
