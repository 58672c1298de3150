/// \file
/// bbsim::sweep -- parallel execution of independent simulation runs.
///
/// The paper's validation (Section IV-B, Figures 10-11) and case study
/// (Section IV-C, Figures 13-14) are parameter sweeps: dozens of mutually
/// independent simulations over (staged fraction x cores x pipelines x
/// platform). Each simulation owns a fully isolated sim/flow/exec/stats
/// stack -- no module in the library keeps mutable global state -- so the
/// sweeps are embarrassingly parallel. SweepRunner exploits that with a
/// plain thread pool.
///
/// Guarantees:
///   * deterministic results -- outcome i is always the outcome of spec i,
///     regardless of which worker finished first, and each run's simulated
///     quantities depend only on its spec (never on `jobs`);
///   * per-run failure capture -- an exception inside one run is recorded
///     in its outcome and does not poison sibling runs;
///   * optional cancel-on-first-error -- unstarted runs are skipped once a
///     failure is observed (in-flight runs complete normally);
///   * serialized progress callbacks -- invoked under a lock, in completion
///     order, from worker threads.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "exec/trace.hpp"

namespace bbsim::sweep {

/// One independent unit of work: a label plus a closure that builds and
/// runs a complete simulation stack and returns its result. The closure
/// must not share mutable state with sibling specs (pass workflows and
/// platform specs by value or const reference; placement policies are
/// immutable and safe to share).
struct RunSpec {
  std::string name;
  std::function<exec::Result()> body;
};

/// What happened to one spec. Exactly one of {ok, error-non-empty,
/// skipped} holds for every outcome.
struct RunOutcome {
  std::string name;
  bool ok = false;
  bool skipped = false;     ///< cancelled before starting (cancel_on_error)
  std::string error;        ///< exception message when the run failed
  std::exception_ptr exception;  ///< the caught exception when the run failed
  exec::Result result;      ///< valid only when ok
  double wall_seconds = 0.0;  ///< host wall time of this run (0 if skipped)
};

/// Snapshot passed to the progress callback after each run finishes.
struct Progress {
  std::size_t finished = 0;  ///< runs finished or skipped so far
  std::size_t total = 0;
  std::string name;  ///< the run that just finished
  bool ok = false;
};

struct SweepOptions {
  /// Worker threads. 1 = run inline on the calling thread (no pool);
  /// 0 = one per hardware thread.
  int jobs = 1;
  /// Stop launching new runs after the first failure. Runs that never
  /// started are marked `skipped`; with jobs > 1 a skipped run can precede
  /// the failure that cancelled it. Default off: report every failure.
  bool cancel_on_error = false;
  /// Invoked after every run (serialized; may be called from workers).
  std::function<void(const Progress&)> on_progress;
};

/// Resolve a --jobs value: 0 -> hardware_concurrency (min 1), else the
/// requested count. Throws util::ConfigError when negative.
int effective_jobs(int requested);

/// A thread pool for independent simulation runs. Stateless between
/// run() calls; cheap to construct.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Execute every spec and return outcomes in spec order.
  std::vector<RunOutcome> run(const std::vector<RunSpec>& specs) const;

  const SweepOptions& options() const { return options_; }

 private:
  SweepOptions options_;
};

}  // namespace bbsim::sweep
