// bbsim -- resilience layer: fault specifications and checkpoint policies.
//
// The paper models burst buffers purely as a performance tier; their
// canonical production role is checkpoint-to-BB with asynchronous drain to
// the PFS (Romanus et al., arXiv 1509.05492). This subsystem injects seeded
// failures into a simulation -- node crashes, BB degradation windows, PFS
// brownouts -- and describes when and how tasks checkpoint so recovery can
// roll them back to their last durable checkpoint instead of to zero.
//
// Everything is driven by util::Rng sub-streams derived from a single seed:
// the fault process is deterministic, so every crash/recovery schedule is
// reproducible and diffable (no wall clocks anywhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "util/rng.hpp"

namespace bbsim::resil {

/// Seeded arrival processes for the three fault classes. An `mtbf` of 0
/// disables that class; `shape` is the Weibull shape (1 = exponential,
/// < 1 = bursty with a heavy tail). Parsed from the CLI `--faults` spec:
/// a comma list of key=value pairs, e.g.
///   "node_mtbf=3600,node_repair=60,seed=7,bb_mtbf=7200,bb_duration=120".
struct FaultSpec {
  std::uint64_t seed = 1;

  // Node crashes: a crashed host loses its running tasks and its node-local
  // BB contents, and rejoins after `node_repair` seconds.
  double node_mtbf = 0.0;   ///< mean seconds between crashes per host; 0 = off
  double node_shape = 1.0;  ///< Weibull shape of the inter-crash gaps
  double node_repair = 30.0;  ///< seconds a crashed host stays down

  // BB degradation: the burst buffer's bandwidth drops to `bb_degrade` of
  // nominal for `bb_duration` seconds.
  double bb_mtbf = 0.0;
  double bb_shape = 1.0;
  double bb_degrade = 0.5;   ///< capacity scale while degraded, in (0, 1]
  double bb_duration = 60.0;

  // PFS brownouts: the PFS bandwidth drops to `pfs_brownout` of nominal.
  double pfs_mtbf = 0.0;
  double pfs_shape = 1.0;
  double pfs_brownout = 0.5;
  double pfs_duration = 60.0;

  /// No fault of any class is sampled past this simulated time (0 = no
  /// horizon). Repairs/clears still fire so nothing stays down forever.
  double horizon = 0.0;

  /// True when at least one fault class is active. A default-constructed
  /// (or all-zero-mtbf) spec leaves the engine bitwise-identical to a run
  /// without the resilience layer.
  bool enabled() const { return node_mtbf > 0.0 || bb_mtbf > 0.0 || pfs_mtbf > 0.0; }

  /// Parse a comma list of key=value pairs. Empty text -> disabled spec.
  /// Throws util::ConfigError on unknown keys or out-of-range values.
  static FaultSpec parse(const std::string& text);

  json::Value to_json() const;
  static FaultSpec from_json(const json::Value& v);
};

/// When tasks write checkpoints, how large they are, and how a failed task
/// restarts. Parsed from the CLI `--checkpoint` spec, e.g.
///   "interval=600,bytes=2g,restart=30"  (periodic) or
///   "daly,fraction=0.1,restart=30"      (Young/Daly-optimal interval).
struct CheckpointSpec {
  enum class Mode {
    None,      ///< no checkpointing: a failed task restarts from zero
    Interval,  ///< fixed period between checkpoints
    Daly,      ///< Young/Daly optimum: tau = sqrt(2 * C * MTBF)
  };

  Mode mode = Mode::None;
  double interval = 0.0;  ///< seconds between checkpoints (Interval mode)
  /// Checkpoint size: `bytes` if > 0, else `fraction` of the task's output
  /// bytes (falling back to its input bytes when it writes nothing).
  double bytes = 0.0;
  double fraction = 0.1;
  double restart_latency = 0.0;  ///< extra delay before a restarted attempt
  /// Tasks whose compute time is below this never checkpoint (the overhead
  /// cannot pay for itself).
  double min_compute = 0.0;

  bool enabled() const { return mode != Mode::None; }

  /// Parse a comma list; bare tokens "none" / "daly" select the mode,
  /// "interval=<s>" selects Interval mode with that period. Empty text ->
  /// disabled. Throws util::ConfigError on unknown keys or bad values.
  static CheckpointSpec parse(const std::string& text);

  json::Value to_json() const;
  static CheckpointSpec from_json(const json::Value& v);
};

const char* to_string(CheckpointSpec::Mode mode);

/// Deterministic fault-arrival sampler: one independent Rng sub-stream per
/// host plus one each for the BB and PFS processes, all forked from the
/// spec seed. Gap samples are inter-arrival times measured from the end of
/// the previous outage window, so windows of one class never overlap.
class FaultModel {
 public:
  FaultModel(const FaultSpec& spec, std::size_t host_count);

  const FaultSpec& spec() const { return spec_; }

  /// Next inter-crash gap for `host` (seconds; > 0).
  double next_node_gap(std::size_t host);
  /// Next inter-degradation gap for the burst buffer.
  double next_bb_gap();
  /// Next inter-brownout gap for the PFS.
  double next_pfs_gap();

 private:
  static double sample_gap(util::Rng& rng, double mtbf, double shape);

  FaultSpec spec_;
  std::vector<util::Rng> node_rng_;
  util::Rng bb_rng_;
  util::Rng pfs_rng_;
};

/// Per-task recovery accounting.
struct TaskResil {
  int attempts = 1;  ///< executions started (1 = never failed)
  int kills = 0;     ///< times a crash killed a running attempt
  double lost_core_seconds = 0.0;    ///< work discarded by kills
  double rework_core_seconds = 0.0;  ///< re-executed work after rollbacks
  /// Engine time the task first completed (-1 until it first completes;
  /// used by the attempt-aware precedence audit: a child may start any time
  /// after the parent's *first* completion, even if a rollback re-ran it).
  double first_complete_time = -1.0;
};

/// Run-level resilience accounting, serialized as the `bbsim.resil.v1`
/// report section. Waste follows the classic decomposition: lost work
/// (killed attempts), checkpoint overhead (cores held while checkpointing),
/// and rework (re-executing work that had already run once).
struct RunStats {
  int node_crashes = 0;
  int node_repairs = 0;
  int bb_degradations = 0;
  int pfs_brownouts = 0;
  int tasks_killed = 0;
  int rollbacks = 0;          ///< completed tasks un-done by lineage loss
  int files_invalidated = 0;  ///< replicas lost to node crashes
  int restarts = 0;           ///< task attempts beyond the first

  double lost_core_seconds = 0.0;
  double checkpoint_core_seconds = 0.0;
  double rework_core_seconds = 0.0;

  int checkpoints_taken = 0;
  double checkpoint_bytes_written = 0.0;    ///< landed on the checkpoint tier
  double checkpoint_bytes_drained = 0.0;    ///< drained BB -> PFS
  double checkpoint_bytes_discarded = 0.0;  ///< dropped (task done / crash)

  /// Name-sorted (std::map) so the report serializes deterministically.
  std::map<std::string, TaskResil> tasks;

  double wasted_core_seconds() const {
    return lost_core_seconds + checkpoint_core_seconds + rework_core_seconds;
  }

  /// The `bbsim.resil.v1` document. Only tasks that were actually disturbed
  /// (attempts > 1 or kills > 0) appear in the per-task section.
  json::Value to_json() const;
};

}  // namespace bbsim::resil
