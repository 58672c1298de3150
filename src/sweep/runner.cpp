#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "util/error.hpp"

namespace bbsim::sweep {

int effective_jobs(int requested) {
  if (requested < 0) throw util::ConfigError("jobs must be >= 0");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {
  (void)effective_jobs(options_.jobs);  // validate early
}

namespace {

/// Shared between the workers of one run() call. The work queue is just an
/// atomic index into the spec vector; outcomes are written by index, which
/// is what makes result order independent of completion order.
struct SweepState {
  const std::vector<RunSpec>* specs = nullptr;
  std::vector<RunOutcome>* outcomes = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex progress_mutex;
  std::size_t finished = 0;
};

void execute_one(const RunSpec& spec, RunOutcome& out) {
  out.name = spec.name;
  // Host wall time feeds RunOutcome::wall_seconds, which reaches a report
  // only under the opt-in include_timings flag (sweep/report.hpp) -- the
  // deterministic report surface never contains it.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(bbsim-nondeterminism-source)
  try {
    if (!spec.body) throw util::ConfigError("run '" + spec.name + "' has no body");
    out.result = spec.body();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.exception = std::current_exception();
  } catch (...) {
    out.error = "unknown exception";
    out.exception = std::current_exception();
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)  // NOLINT(bbsim-nondeterminism-source)
                         .count();
}

void worker_loop(SweepState& state, const SweepOptions& options) {
  const std::size_t total = state.specs->size();
  for (;;) {
    const std::size_t i = state.next.fetch_add(1);
    if (i >= total) return;
    RunOutcome& out = (*state.outcomes)[i];
    if (options.cancel_on_error && state.cancelled.load()) {
      out.name = (*state.specs)[i].name;
      out.skipped = true;
    } else {
      execute_one((*state.specs)[i], out);
      if (!out.ok) state.cancelled.store(true);
    }
    std::lock_guard<std::mutex> lock(state.progress_mutex);
    ++state.finished;
    if (options.on_progress) {
      Progress p;
      p.finished = state.finished;
      p.total = total;
      p.name = out.name;
      p.ok = out.ok;
      options.on_progress(p);
    }
  }
}

}  // namespace

std::vector<RunOutcome> SweepRunner::run(const std::vector<RunSpec>& specs) const {
  std::vector<RunOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;

  SweepState state;
  state.specs = &specs;
  state.outcomes = &outcomes;

  const int jobs = effective_jobs(options_.jobs);
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), specs.size());
  if (workers <= 1) {
    worker_loop(state, options_);
    return outcomes;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&state, this] { worker_loop(state, options_); });
  }
  for (std::thread& t : pool) t.join();
  return outcomes;
}

}  // namespace bbsim::sweep
