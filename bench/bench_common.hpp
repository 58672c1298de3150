// Shared helpers for the experiment binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "exec/engine.hpp"
#include "json/json.hpp"
#include "model/calibration.hpp"
#include "testbed/testbed.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workflow/swarp.hpp"

namespace bbsim::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The main of the gated benches. `known` lists the bench's tiers (structs
/// with a `label`); `--tiers a,b` picks some of them, in that order
/// (default: `defaults`). Each picked tier is passed to `measure`, and the
/// results are written to `--out FILE` (default BENCH_<bench>.json) as
/// {"schema": "bbsim.bench.v1", "bench": <bench>, "tiers": [...]}, the one
/// schema tools/check_bench_regression.py gates. Any other argument, or an
/// unknown, empty or repeated tier label, is a usage error: exit 2.
template <typename Tier, typename Measure>
int run_bench(int argc, char** argv, const std::string& bench,
              const std::vector<Tier>& known, const std::string& defaults,
              Measure measure) {
  std::string tiers_arg = defaults;
  std::string out_path = "BENCH_" + bench + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiers" && i + 1 < argc) {
      tiers_arg = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--tiers %s] [--out FILE]\n", argv[0],
                   defaults.c_str());
      return 2;
    }
  }

  std::vector<const Tier*> picked;
  for (const std::string& label : util::split(tiers_arg, ',')) {
    const auto it = std::find_if(known.begin(), known.end(),
                                 [&](const Tier& t) { return t.label == label; });
    if (it == known.end() ||
        std::find(picked.begin(), picked.end(), &*it) != picked.end()) {
      std::vector<std::string> labels;
      for (const Tier& t : known) labels.push_back(t.label);
      std::fprintf(stderr, "%s: unknown or repeated tier '%s' (use %s)\n", argv[0],
                   label.c_str(), util::join(labels, ", ").c_str());
      return 2;
    }
    picked.push_back(&*it);
  }

  json::Array results;
  for (const Tier* tier : picked) results.push_back(measure(*tier));
  json::Object root;
  root.set("schema", "bbsim.bench.v1");
  root.set("bench", bench);
  root.set("tiers", json::Value(std::move(results)));
  json::write_file(out_path, json::Value(std::move(root)));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// Print a standard experiment banner.
inline void banner(const std::string& experiment, const std::string& paper_ref,
                   const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s  (%s)\n", experiment.c_str(), paper_ref.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n\n");
}

/// The three systems of the paper's characterization, in figure order.
inline const std::vector<testbed::System> kAllSystems = {
    testbed::System::CoriPrivate, testbed::System::CoriStriped,
    testbed::System::Summit};

/// Calibrate a copy of `workflow` from testbed observations and run the
/// simple (Table I) model -- the paper's Section IV-B methodology.
inline exec::Result simple_model_run(
    testbed::System system, const wf::Workflow& workflow,
    const std::map<std::string, model::TaskObservation>& observations,
    const exec::ExecutionConfig& config, int compute_nodes = 1) {
  wf::Workflow calibrated = workflow;
  const platform::PlatformSpec plat = testbed::paper_platform(system, compute_nodes);
  model::calibrate_workflow(calibrated, observations, plat.hosts[0].core_speed);
  exec::Simulation sim(plat, calibrated, config);
  return sim.run();
}

/// Write a CSV and tell the user where it went.
inline void save_csv(const analysis::Table& table, const std::string& filename) {
  table.write_csv(filename);
  std::printf("\n[csv] wrote %s\n", filename.c_str());
}

}  // namespace bbsim::bench
