// Critical-path layer overhead benchmark.
//
// Runs the same SWarp configuration with the critpath recorder off and on,
// back-to-back on the same machine, and writes BENCH_critpath.json (schema
// bbsim.bench.v1, bench "critpath"). Three kinds of numbers:
//
//   - off_seconds / on_seconds: min wall-clock over kReps repetitions.
//     Hardware-sensitive in absolute terms, but their ratio
//     (overhead_ratio) is measured back-to-back on one machine, so CI
//     gates it at <= 1.05 via tools/check_bench_regression.py.
//   - off_bitwise_identical: the report of a --critpath run with its
//     "critpath" key removed must be byte-identical to a run that never
//     had the recorder -- the "0% when off" half of the contract.
//   - attribution_exact: path_length and the blame-class sum both equal
//     the makespan within 1e-9, and the baseline what-if replay
//     reproduces it. Hardware-insensitive; always gated.
//
// Usage: bench_critpath [--tiers swarp-8,swarp-32] [--out FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/engine.hpp"
#include "exec/placement.hpp"
#include "json/json.hpp"
#include "platform/presets.hpp"
#include "workflow/swarp.hpp"

namespace {

using namespace bbsim;
using bench::Clock;
using bench::seconds_since;

/// Off/on pairs timed per tier.
constexpr int kReps = 9;

struct Tier {
  std::string label;
  int pipelines = 0;
};

exec::ExecutionConfig base_config() {
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  return cfg;
}

exec::Result run_once(const platform::PlatformSpec& platform,
                      const wf::Workflow& workflow, bool critpath) {
  exec::ExecutionConfig cfg = base_config();
  cfg.critpath = critpath;
  return exec::Simulation(platform, workflow, cfg).run();
}

struct WallPair {
  double off = 0.0;
  double on = 0.0;
};

/// Min wall over kReps interleaved off/on pairs: alternating the two
/// configurations inside one loop cancels thermal and scheduler drift,
/// and min is robust to one-off noise spikes.
WallPair min_wall_pair(const platform::PlatformSpec& platform,
                       const wf::Workflow& workflow) {
  WallPair best{std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity()};
  for (int i = 0; i < kReps; ++i) {
    Clock::time_point t0 = Clock::now();
    run_once(platform, workflow, /*critpath=*/false);
    best.off = std::min(best.off, seconds_since(t0));
    t0 = Clock::now();
    run_once(platform, workflow, /*critpath=*/true);
    best.on = std::min(best.on, seconds_since(t0));
  }
  return best;
}

std::string dump_without_critpath(const exec::Result& r) {
  const json::Value doc = r.to_json();
  json::Object out;
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "critpath") out.set(key, value);
  }
  return json::Value(std::move(out)).dump(2);
}

json::Value run_tier(const Tier& tier) {
  const platform::PlatformSpec platform = platform::cori_platform();
  wf::SwarpConfig scfg;
  scfg.pipelines = tier.pipelines;
  const wf::Workflow workflow = wf::make_swarp(scfg);

  std::printf("tier %s: swarp x%d pipelines, %d repetitions per config\n",
              tier.label.c_str(), tier.pipelines, kReps);

  // Correctness half first (also warms caches for the timing half).
  const exec::Result off = run_once(platform, workflow, /*critpath=*/false);
  const exec::Result on = run_once(platform, workflow, /*critpath=*/true);
  const bool off_identical =
      off.critpath.is_null() && dump_without_critpath(on) == off.to_json().dump(2);

  bool attribution_exact = false;
  if (on.critpath.is_object()) {
    const double tol = 1e-9 * std::max(1.0, on.makespan);
    const double path_length = on.critpath.get_number("path_length", -1.0);
    double blame_sum = 0.0;
    for (const auto& [name, seconds] : on.critpath.at("blame").as_object()) {
      (void)name;
      blame_sum += seconds.as_number();
    }
    double baseline = -1.0;
    for (const json::Value& w : on.critpath.at("what_if").as_array()) {
      if (w.get_string("scenario", "") == "baseline") {
        baseline = w.get_number("makespan", -1.0);
      }
    }
    attribution_exact = std::abs(path_length - on.makespan) <= tol &&
                        std::abs(blame_sum - on.makespan) <= tol &&
                        std::abs(baseline - on.makespan) <= tol;
  }

  const WallPair wall = min_wall_pair(platform, workflow);
  const double off_seconds = wall.off;
  const double on_seconds = wall.on;
  const double ratio = off_seconds > 0.0 ? on_seconds / off_seconds : 0.0;

  std::printf("   off %.4fs  on %.4fs  overhead %.3fx  "
              "off-identical %s  attribution-exact %s\n",
              off_seconds, on_seconds, ratio, off_identical ? "yes" : "NO",
              attribution_exact ? "yes" : "NO");

  json::Object out;
  out.set("tier", tier.label);
  out.set("pipelines", static_cast<double>(tier.pipelines));
  out.set("tasks", static_cast<double>(on.tasks.size()));
  out.set("reps", kReps);
  out.set("makespan", on.makespan);
  out.set("off_seconds", off_seconds);
  out.set("on_seconds", on_seconds);
  out.set("overhead_ratio", ratio);
  out.set("off_bitwise_identical", off_identical);
  out.set("attribution_exact", attribution_exact);
  return json::Value(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_bench(argc, argv, "critpath",
                          std::vector<Tier>{{"swarp-8", 8}, {"swarp-32", 32}},
                          "swarp-8,swarp-32", run_tier);
}
